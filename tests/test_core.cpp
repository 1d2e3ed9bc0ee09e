// Tests for the paper's contribution: the (step, flag) ring plan of
// Listing 1 (checked against the worked examples of Figures 4 and 5), the
// closed-form transfer analysis (56->44 at P=8, 90->75 at P=10), and the
// tuned scatter-ring-allgather broadcast — verified with real data on the
// thread backend and symbolically with the coverage validator.
#include <gtest/gtest.h>

#include "bcast_test_util.hpp"
#include "case_bytes.hpp"
#include "coll/allgather_ring_native.hpp"
#include "coll/bcast_scatter_ring_native.hpp"
#include "coll/scatter_binomial.hpp"
#include "comm/chunks.hpp"
#include "core/allgather_ring_tuned.hpp"
#include "core/bcast.hpp"
#include "core/bcast_scatter_ring_tuned.hpp"
#include "comm/subcomm.hpp"
#include "core/persistent_bcast.hpp"
#include "core/ring_plan.hpp"
#include "core/transfer_analysis.hpp"
#include "trace/counters.hpp"
#include "trace/event_table.hpp"

namespace bsb::core {
namespace {

using testutil::check_bcast_coverage;
using testutil::check_bcast_on_threads;

// ---------------------------------------------------------------- RingPlan

TEST(RingPlan, PaperFigure4EightProcesses) {
  // (step, recv_only) per relative rank, from the Fig. 4 walk-through.
  struct { int step; bool recv_only; } expect[] = {
      {8, false}, {2, true}, {2, false}, {4, true},
      {4, false}, {2, true}, {2, false}, {8, true},
  };
  for (int rel = 0; rel < 8; ++rel) {
    const RingPlan p = compute_ring_plan(rel, 8);
    EXPECT_EQ(p.step, expect[rel].step) << "rel " << rel;
    EXPECT_EQ(p.recv_only, expect[rel].recv_only) << "rel " << rel;
  }
}

TEST(RingPlan, PaperFigure5TenProcesses) {
  struct { int step; bool recv_only; } expect[] = {
      {10, false}, {2, true}, {2, false}, {4, true}, {4, false},
      {2, true},  {2, false}, {2, true},  {2, false}, {10, true},
  };
  for (int rel = 0; rel < 10; ++rel) {
    const RingPlan p = compute_ring_plan(rel, 10);
    EXPECT_EQ(p.step, expect[rel].step) << "rel " << rel;
    EXPECT_EQ(p.recv_only, expect[rel].recv_only) << "rel " << rel;
  }
}

TEST(RingPlan, RootNeverReceivesLeftOfRootNeverSends) {
  for (int P = 2; P <= 300; ++P) {
    const RingPlan root = compute_ring_plan(0, P);
    EXPECT_FALSE(root.recv_only);
    EXPECT_EQ(root.step, P);  // send-only for ALL P-1 steps
    EXPECT_EQ(tuned_recvs(root, P), 0);

    const RingPlan last = compute_ring_plan(P - 1, P);
    EXPECT_TRUE(last.recv_only);
    EXPECT_EQ(last.step, P);
    EXPECT_EQ(tuned_sends(last, P), 0);
  }
}

TEST(RingPlan, StepMatchesScatterSubtree) {
  // A send-only rank's step equals its binomial-subtree block size; a
  // receive-only rank's step equals its RIGHT neighbour's block size.
  for (int P = 2; P <= 200; ++P) {
    for (int rel = 0; rel < P; ++rel) {
      const RingPlan p = compute_ring_plan(rel, P);
      if (p.recv_only) {
        const int right = (rel + 1) % P;
        EXPECT_EQ(p.step, coll::scatter_subtree_span(right, P))
            << "P=" << P << " rel=" << rel;
      } else {
        EXPECT_EQ(p.step, coll::scatter_subtree_span(rel, P))
            << "P=" << P << " rel=" << rel;
      }
    }
  }
}

TEST(RingPlan, SkippedSendsPairWithSkippedReceives) {
  // Property: every send-only rank q skips exactly as many receives (from
  // q-1) as its left neighbour q-1 skips sends (to q), step for step —
  // otherwise the tuned ring would deadlock or lose data.
  for (int P = 2; P <= 300; ++P) {
    for (int rel = 0; rel < P; ++rel) {
      const RingPlan p = compute_ring_plan(rel, P);
      if (!p.recv_only && p.special_steps() > 0) {
        const int left = (rel + P - 1) % P;
        const RingPlan lp = compute_ring_plan(left, P);
        EXPECT_TRUE(lp.recv_only) << "P=" << P << " rel=" << rel;
        EXPECT_EQ(lp.step, p.step) << "P=" << P << " rel=" << rel;
      }
    }
  }
}

TEST(RingPlan, SendsEqualReceivesGloballyPerStep) {
  // In every ring step the set of sends equals the set of receives: rank r
  // sends at step i iff rank r+1 receives at step i.
  for (int P : {2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 17, 33, 64, 129}) {
    std::vector<RingPlan> plans;
    plans.reserve(P);
    for (int rel = 0; rel < P; ++rel) plans.push_back(compute_ring_plan(rel, P));
    for (int i = 1; i < P; ++i) {
      for (int rel = 0; rel < P; ++rel) {
        const bool sends = !is_special_step(plans[rel], i, P) || !plans[rel].recv_only;
        const int right = (rel + 1) % P;
        const bool receives =
            !is_special_step(plans[right], i, P) || plans[right].recv_only;
        EXPECT_EQ(sends, receives) << "P=" << P << " i=" << i << " rel=" << rel;
      }
    }
  }
}

TEST(RingPlan, SingleRankIsTrivial) {
  const RingPlan p = compute_ring_plan(0, 1);
  EXPECT_EQ(p.step, 1);
  EXPECT_EQ(p.special_steps(), 0);
}

TEST(RingPlan, RejectsBadArguments) {
  EXPECT_THROW(compute_ring_plan(0, 0), PreconditionError);
  EXPECT_THROW(compute_ring_plan(-1, 4), PreconditionError);
  EXPECT_THROW(compute_ring_plan(4, 4), PreconditionError);
}

// --------------------------------------------------------- TransferAnalysis

TEST(TransferAnalysis, PaperInTextNumbers) {
  EXPECT_EQ(native_ring_transfers(8), 56u);
  EXPECT_EQ(tuned_ring_transfers(8), 44u);
  EXPECT_EQ(tuned_ring_savings(8), 12u);
  EXPECT_EQ(native_ring_transfers(10), 90u);
  EXPECT_EQ(tuned_ring_transfers(10), 75u);
  EXPECT_EQ(tuned_ring_savings(10), 15u);
}

TEST(TransferAnalysis, SavingsGrowWithProcessCount) {
  // Paper §IV: "the decrement in the amount of the transferred data will
  // increase as the growing of the process count P".
  std::uint64_t prev = 0;
  for (int P : {4, 8, 16, 32, 64, 128, 256, 512, 1024}) {
    const std::uint64_t s = tuned_ring_savings(P);
    EXPECT_GT(s, prev) << "P=" << P;
    prev = s;
  }
}

TEST(TransferAnalysis, SavingsBySendersEqualsSavingsByReceivers) {
  for (int P = 1; P <= 300; ++P) {
    std::uint64_t by_recv_only = 0;
    for (int rel = 0; rel < P; ++rel) {
      const RingPlan p = compute_ring_plan(rel, P);
      if (p.recv_only) by_recv_only += p.special_steps();
    }
    EXPECT_EQ(by_recv_only, tuned_ring_savings(P)) << "P=" << P;
  }
}

TEST(TransferAnalysis, TunedNeverExceedsNative) {
  for (int P = 1; P <= 300; ++P) {
    EXPECT_LE(tuned_ring_transfers(P), native_ring_transfers(P));
  }
}

TEST(TransferAnalysis, PowerOfTwoSavingsClosedForm) {
  // For P = 2^k the send-only ranks are the subtree roots: one block of P,
  // one of P/2, two of P/4, ... so savings = sum over blocks (size-1).
  for (int k = 1; k <= 10; ++k) {
    const int P = 1 << k;
    std::uint64_t expect = static_cast<std::uint64_t>(P) - 1;  // the root
    for (int level = 1; level < k; ++level) {
      const int block = P >> level;
      expect += static_cast<std::uint64_t>(1 << (level - 1)) * (block - 1);
    }
    EXPECT_EQ(tuned_ring_savings(P), expect) << "P=" << P;
  }
}

TEST(TransferAnalysis, ScatterTransfers) {
  EXPECT_EQ(scatter_transfers(8, 8000), 7u);
  EXPECT_EQ(scatter_transfers(10, 8000), 9u);
  // Fewer bytes than ranks: trailing ranks get nothing and receive nothing.
  EXPECT_EQ(scatter_transfers(8, 3), 2u);
  EXPECT_EQ(scatter_transfers(8, 0), 0u);
}

TEST(TransferAnalysis, TableRenders) {
  const std::string t = transfer_table({8, 10});
  EXPECT_NE(t.find("56"), std::string::npos);
  EXPECT_NE(t.find("44"), std::string::npos);
  EXPECT_NE(t.find("75"), std::string::npos);
}

// ----------------------------------------------- recorded schedule matches
// closed form — ties the analysis to the actual algorithm implementation.

TEST(TunedRingSchedule, MessageCountMatchesClosedFormAcrossP) {
  for (int P = 2; P <= 64; ++P) {
    const std::uint64_t nbytes = 64 * static_cast<std::uint64_t>(P);
    const auto tuned = trace::record_schedule(
        P, nbytes, [&](Comm& comm, std::span<std::byte> buffer) {
          allgather_ring_tuned(comm, buffer, 0, ChunkLayout(nbytes, P));
        });
    EXPECT_EQ(tuned.total_sends(), tuned_ring_transfers(P)) << "P=" << P;

    const auto native = trace::record_schedule(
        P, nbytes, [&](Comm& comm, std::span<std::byte> buffer) {
          coll::allgather_ring_native(comm, buffer, 0, ChunkLayout(nbytes, P));
        });
    EXPECT_EQ(native.total_sends(), native_ring_transfers(P)) << "P=" << P;
  }
}

TEST(TunedRingSchedule, SameStepCountAsNative) {
  // Paper §IV: the tuned ring uses the SAME P-1 steps; only transfers are
  // skipped. Per-rank op counts stay P-1.
  for (int P : {2, 8, 10, 17}) {
    const auto sched = trace::record_schedule(
        P, 1024, [&](Comm& comm, std::span<std::byte> buffer) {
          allgather_ring_tuned(comm, buffer, 0, ChunkLayout(1024, P));
        });
    for (int r = 0; r < P; ++r) {
      EXPECT_EQ(sched.ops[r].size(), static_cast<std::size_t>(P - 1));
    }
  }
}

TEST(TunedRingSchedule, RootLinkCarriesNoMessages) {
  // The link from rank root-1 into the root is never used.
  const int P = 10, root = 4;
  const auto sched = trace::record_schedule(
      P, 1000, [&](Comm& comm, std::span<std::byte> buffer) {
        allgather_ring_tuned(comm, buffer, root, ChunkLayout(1000, P));
      });
  const auto m = trace::match_schedule(sched);
  for (const auto& msg : m.msgs) {
    EXPECT_FALSE(msg.dst == root) << "message into the root from " << msg.src;
  }
}

// -------------------------------------------------- tuned bcast correctness

struct BcastCase {
  int nranks;
  std::uint64_t nbytes;
  int root;
};

void PrintTo(const BcastCase& c, std::ostream* os) {
  testutil::print_case_bytes(c, os);
}

std::vector<BcastCase> sweep_cases() {
  std::vector<BcastCase> cases;
  for (int P : {1, 2, 3, 4, 5, 7, 8, 9, 10, 12, 16, 17, 24}) {
    for (std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5},
                            std::uint64_t{257}, std::uint64_t{4096},
                            std::uint64_t{12289}}) {
      for (int root : {0, P / 2, P - 1}) {
        if (root >= P) continue;
        cases.push_back({P, n, root});
        if (root == P - 1) break;
      }
    }
  }
  return cases;
}

class TunedBcastSweep : public ::testing::TestWithParam<BcastCase> {};

std::string case_name(const ::testing::TestParamInfo<BcastCase>& info) {
  return "P" + std::to_string(info.param.nranks) + "_n" +
         std::to_string(info.param.nbytes) + "_r" +
         std::to_string(info.param.root);
}

TEST_P(TunedBcastSweep, CorrectOnThreads) {
  const auto& c = GetParam();
  check_bcast_on_threads(c.nranks, c.nbytes, c.root,
                         [](Comm& comm, std::span<std::byte> buf, int root) {
                           bcast_scatter_ring_tuned(comm, buf, root);
                         });
}

TEST_P(TunedBcastSweep, CoverageHolds) {
  const auto& c = GetParam();
  check_bcast_coverage(c.nranks, c.nbytes, c.root,
                       [](Comm& comm, std::span<std::byte> buf, int root) {
                         bcast_scatter_ring_tuned(comm, buf, root);
                       });
}

INSTANTIATE_TEST_SUITE_P(Sweep, TunedBcastSweep,
                         ::testing::ValuesIn(sweep_cases()), case_name);

TEST(TunedBcast, CoverageForAllRootsUpToP32) {
  // Exhaustive (P, root) scan, symbolic only — cheap and thorough.
  for (int P = 2; P <= 32; ++P) {
    for (int root = 0; root < P; ++root) {
      check_bcast_coverage(P, 31 * P + 7, root,
                           [](Comm& comm, std::span<std::byte> buf, int r) {
                             bcast_scatter_ring_tuned(comm, buf, r);
                           });
    }
  }
}

TEST(TunedBcast, LargeRendezvousOnThreads) {
  mpisim::WorldConfig cfg;
  cfg.eager_threshold = 2048;
  check_bcast_on_threads(10, 600000, 7,
                         [](Comm& comm, std::span<std::byte> buf, int root) {
                           bcast_scatter_ring_tuned(comm, buf, root);
                         },
                         cfg);
}

TEST(TunedBcast, FewerMessagesThanNativeOnThreads) {
  // End-to-end on the runtime counters: the tuned broadcast really sends
  // fewer messages (scatter is identical, ring saves tuned_ring_savings).
  const int P = 10;
  const std::uint64_t nbytes = 10240;
  mpisim::World native_world(P), tuned_world(P);
  native_world.run([&](mpisim::ThreadComm& comm) {
    std::vector<std::byte> buf(nbytes);
    coll::bcast_scatter_ring_native(comm, buf, 0);
  });
  tuned_world.run([&](mpisim::ThreadComm& comm) {
    std::vector<std::byte> buf(nbytes);
    bcast_scatter_ring_tuned(comm, buf, 0);
  });
  EXPECT_EQ(native_world.total_msgs() - tuned_world.total_msgs(),
            tuned_ring_savings(P));
}

// ---------------------------------------------------------------- selector

TEST(Selector, MpichDispatchTable) {
  const BcastConfig cfg;
  // Short messages: always binomial.
  EXPECT_EQ(choose_bcast_algorithm(0, 64, cfg), BcastAlgorithm::Binomial);
  EXPECT_EQ(choose_bcast_algorithm(12287, 64, cfg), BcastAlgorithm::Binomial);
  // Small groups: always binomial.
  EXPECT_EQ(choose_bcast_algorithm(1 << 20, 7, cfg), BcastAlgorithm::Binomial);
  // Medium, power-of-two: scatter + recursive doubling.
  EXPECT_EQ(choose_bcast_algorithm(12288, 64, cfg),
            BcastAlgorithm::ScatterRdAllgather);
  EXPECT_EQ(choose_bcast_algorithm(524287, 16, cfg),
            BcastAlgorithm::ScatterRdAllgather);
  // Medium, non-power-of-two: the ring path (mmsg-npof2 in the paper).
  EXPECT_EQ(choose_bcast_algorithm(12288, 9, cfg),
            BcastAlgorithm::ScatterRingTuned);
  // Long: the ring path regardless of pof2.
  EXPECT_EQ(choose_bcast_algorithm(524288, 64, cfg),
            BcastAlgorithm::ScatterRingTuned);
  EXPECT_EQ(choose_bcast_algorithm(1 << 22, 129, cfg),
            BcastAlgorithm::ScatterRingTuned);
}

TEST(Selector, TunedToggle) {
  BcastConfig cfg;
  cfg.use_tuned_ring = false;
  EXPECT_EQ(choose_bcast_algorithm(1 << 20, 64, cfg),
            BcastAlgorithm::ScatterRingNative);
  cfg.use_tuned_ring = true;
  EXPECT_EQ(choose_bcast_algorithm(1 << 20, 64, cfg),
            BcastAlgorithm::ScatterRingTuned);
}

TEST(Selector, NamesAreStable) {
  EXPECT_STREQ(to_string(BcastAlgorithm::Binomial), "binomial");
  EXPECT_STREQ(to_string(BcastAlgorithm::ScatterRingTuned),
               "scatter+ring-allgather(tuned)");
}

TEST(Selector, TopLevelBcastCrossesThresholds) {
  // Exercise bcast() end-to-end at sizes that select each algorithm.
  for (std::uint64_t n : {std::uint64_t{100}, std::uint64_t{20000},
                          std::uint64_t{600000}}) {
    check_bcast_on_threads(9, n, 2,
                           [](Comm& comm, std::span<std::byte> buf, int root) {
                             bcast(comm, buf, root);
                           });
  }
  // Power-of-two group to hit the recursive-doubling path.
  check_bcast_on_threads(8, 20000, 3,
                         [](Comm& comm, std::span<std::byte> buf, int root) {
                           bcast(comm, buf, root);
                         });
}

// ------------------------------------ hand-transcribed paper figure tables

TEST(TunedRingSchedule, Figure4PerRankSendRecvCounts) {
  // Transcribed from the paper's Figure 4 (P=8): how many of the 7 ring
  // steps each rank sends in and receives in.
  const int expect_sends[8] = {7, 6, 7, 4, 7, 6, 7, 0};
  const int expect_recvs[8] = {0, 7, 6, 7, 4, 7, 6, 7};
  const auto sched = trace::record_schedule(
      8, 8 * 64, [](Comm& comm, std::span<std::byte> buffer) {
        allgather_ring_tuned(comm, buffer, 0, ChunkLayout(8 * 64, 8));
      });
  for (int r = 0; r < 8; ++r) {
    int sends = 0, recvs = 0;
    for (const auto& op : sched.ops[r]) {
      sends += op.has_send();
      recvs += op.has_recv();
    }
    EXPECT_EQ(sends, expect_sends[r]) << "rank " << r;
    EXPECT_EQ(recvs, expect_recvs[r]) << "rank " << r;
  }
}

TEST(TunedRingSchedule, Figure5PerRankSendRecvCounts) {
  // Transcribed from the paper's Figure 5 (P=10, non-power-of-two): rank 4
  // stops receiving after step 6; ranks 2/6/8 are complete after step 8;
  // rank 9 never sends; rank 0 (root) never receives.
  const int expect_sends[10] = {9, 8, 9, 6, 9, 8, 9, 8, 9, 0};
  const int expect_recvs[10] = {0, 9, 8, 9, 6, 9, 8, 9, 8, 9};
  const auto sched = trace::record_schedule(
      10, 10 * 64, [](Comm& comm, std::span<std::byte> buffer) {
        allgather_ring_tuned(comm, buffer, 0, ChunkLayout(10 * 64, 10));
      });
  for (int r = 0; r < 10; ++r) {
    int sends = 0, recvs = 0;
    for (const auto& op : sched.ops[r]) {
      sends += op.has_send();
      recvs += op.has_recv();
    }
    EXPECT_EQ(sends, expect_sends[r]) << "rank " << r;
    EXPECT_EQ(recvs, expect_recvs[r]) << "rank " << r;
  }
}

TEST(TunedRingSchedule, Figure4ChunkSequenceIntoProcess4) {
  // Figure 4's walk-through: "in the first four steps, process 4 gets the
  // data chunks marked with 3, 2, 1 and 0 from process 3 in sequence",
  // then stops receiving.
  const auto sched = trace::record_schedule(
      8, 8 * 64, [](Comm& comm, std::span<std::byte> buffer) {
        allgather_ring_tuned(comm, buffer, 0, ChunkLayout(8 * 64, 8));
      });
  const auto& ops4 = sched.ops[4];
  std::vector<int> received_chunks;
  for (const auto& op : ops4) {
    if (op.has_recv()) {
      EXPECT_EQ(op.src, 3);
      received_chunks.push_back(static_cast<int>(op.recv_off / 64));
    }
  }
  EXPECT_EQ(received_chunks, (std::vector<int>{3, 2, 1, 0}));
}

TEST(TunedBcast, LargeScaleSymbolicCoverage) {
  // P=256 (Fig. 6(c) scale): the full broadcast still delivers every byte
  // to every rank — proven symbolically in milliseconds, no threads.
  check_bcast_coverage(256, 1 << 16, 37,
                       [](Comm& comm, std::span<std::byte> buf, int root) {
                         bcast_scatter_ring_tuned(comm, buf, root);
                       });
}

// --------------------------------------------------------- persistent bcast

TEST(PersistentBcast, ExecutesRepeatedlyWithCorrectData) {
  const int P = 10;
  const std::uint64_t nbytes = 50000;  // mmsg-npof2 -> tuned ring
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    core::PersistentBcast plan(comm, nbytes, /*root=*/3);
    EXPECT_EQ(plan.algorithm(), BcastAlgorithm::ScatterRingTuned);
    std::vector<std::byte> buf(nbytes);
    for (int iter = 0; iter < 4; ++iter) {
      if (comm.rank() == 3) fill_pattern(buf, 600 + iter);
      plan.execute(buf);
      ASSERT_EQ(first_pattern_mismatch(buf, 600 + iter), buf.size())
          << "iter " << iter << " rank " << comm.rank();
    }
  });
}

TEST(PersistentBcast, StepCountMatchesPlan) {
  // Root of a tuned P=8 ring: 3 scatter sends + 7 ring sends, no receives.
  const int P = 8;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    BcastConfig cfg;
    cfg.min_procs_for_scatter = 2;  // force the ring path at this size
    core::PersistentBcast plan(comm, 1 << 20, 0, cfg);
    if (comm.rank() == 0) {
      EXPECT_EQ(plan.steps().size(), 10u);
      for (const auto& s : plan.steps()) {
        EXPECT_EQ(s.kind, core::BcastStep::Kind::Send);
      }
    }
    if (comm.rank() == 7) {
      // Left of the root: receive-only in the tuned ring (plus its scatter
      // receive).
      for (const auto& s : plan.steps()) {
        EXPECT_EQ(s.kind, core::BcastStep::Kind::Recv);
      }
    }
    const std::string d = plan.describe();
    EXPECT_NE(d.find("scatter+ring-allgather(tuned)"), std::string::npos);
  });
}

TEST(PersistentBcast, MatchesOneShotMessageCounts) {
  const int P = 9;
  const std::uint64_t nbytes = 30000;
  mpisim::World plan_world(P), direct_world(P);
  plan_world.run([&](mpisim::ThreadComm& comm) {
    core::PersistentBcast plan(comm, nbytes, 0);
    std::vector<std::byte> buf(nbytes);
    if (comm.rank() == 0) fill_pattern(buf, 1);
    plan.execute(buf);
    plan.execute(buf);  // twice
  });
  direct_world.run([&](mpisim::ThreadComm& comm) {
    std::vector<std::byte> buf(nbytes);
    if (comm.rank() == 0) fill_pattern(buf, 1);
    bcast(comm, buf, 0);
    bcast(comm, buf, 0);
  });
  EXPECT_EQ(plan_world.total_msgs(), direct_world.total_msgs());
  EXPECT_EQ(plan_world.total_bytes(), direct_world.total_bytes());
}

TEST(PersistentBcast, RejectsWrongBufferSize) {
  mpisim::World world(2);
  world.run([](mpisim::ThreadComm& comm) {
    core::PersistentBcast plan(comm, 100, 0);
    std::vector<std::byte> wrong(99);
    EXPECT_THROW(plan.execute(wrong), PreconditionError);
    if (comm.rank() == 0) {
      // Unblock rank 1? No communication happened: both ranks threw before
      // any send. Nothing to do.
    }
  });
}

// ------------------------------------------------------ subcomm composition

TEST(TunedBcast, WorksInsideSubCommunicator) {
  // The paper's npof2-by-splitting scenario: a 7-rank subgroup of a
  // 12-rank world runs the tuned broadcast; outsiders stay silent.
  const int P = 12;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    if (comm.rank() >= 7) return;
    SubComm sub(comm, {0, 1, 2, 3, 4, 5, 6}, /*context=*/5);
    std::vector<std::byte> buf(40000);
    if (sub.rank() == 2) fill_pattern(buf, 321);
    bcast_scatter_ring_tuned(sub, buf, 2);
    EXPECT_EQ(first_pattern_mismatch(buf, 321), buf.size());
  });
}

// ------------------------------------------------------- large-P plan sweep

TEST(RingPlan, LargeScaleInvariants) {
  // Savings bookkeeping and plan sanity up to P = 2048 (covers Top500-ish
  // rank counts at a per-node granularity).
  for (int P : {512, 1000, 1024, 2000, 2048}) {
    std::uint64_t send_skips = 0, recv_skips = 0;
    for (int rel = 0; rel < P; ++rel) {
      const RingPlan p = compute_ring_plan(rel, P);
      ASSERT_GE(p.step, 1);
      ASSERT_LE(p.step, P);
      (p.recv_only ? send_skips : recv_skips) +=
          static_cast<std::uint64_t>(p.special_steps());
    }
    EXPECT_EQ(send_skips, recv_skips) << "P=" << P;
    EXPECT_EQ(recv_skips, tuned_ring_savings(P)) << "P=" << P;
    EXPECT_LT(tuned_ring_transfers(P), native_ring_transfers(P)) << "P=" << P;
  }
}

// ---------------------------------------------------------- event rendering

TEST(EventTable, ShowsTunedRingEvents) {
  const int P = 8;
  const std::uint64_t nbytes = 64;
  const auto sched = trace::record_schedule(
      P, nbytes, [&](Comm& comm, std::span<std::byte> buffer) {
        allgather_ring_tuned(comm, buffer, 0, ChunkLayout(nbytes, P));
      });
  const std::string table = trace::render_event_table(sched, 8);
  // Step 1: rank 0 sends chunk 0 to rank 1 and receives nothing (send-only
  // is not yet active at step 1 — the root is ALWAYS send-only, so its cell
  // has a send and no receive).
  EXPECT_NE(table.find("s0>1"), std::string::npos);
  EXPECT_EQ(sched.ops[0][0].kind, trace::OpKind::Send);
  // Rank 7 never sends: all its ops are plain receives.
  for (const auto& op : sched.ops[7]) {
    EXPECT_EQ(op.kind, trace::OpKind::Recv);
  }
}

}  // namespace
}  // namespace bsb::core
