// Cross-substrate integration and property tests:
//  * thread backend vs recorded schedule consistency (message counts);
//  * the headline simulation property — the tuned broadcast is never
//    slower than the native one — swept over a (P, size, topology) grid;
//  * SMP broadcast simulated end-to-end (native vs tuned inter phase);
//  * Laki cost model sanity (same trend as Hornet, the paper's claim);
//  * env-based selector tuning;
//  * replay timeline rendering.
#include <gtest/gtest.h>

#include <fstream>
#include <map>

#include "bsbutil/math.hpp"
#include "case_bytes.hpp"
#include "trace/export.hpp"

#include "coll/bcast_binomial.hpp"
#include "coll/bcast_scatter_ring_native.hpp"
#include "coll/bcast_smp.hpp"
#include "core/bcast.hpp"
#include "core/bcast_scatter_ring_tuned.hpp"
#include "core/transfer_analysis.hpp"
#include "core/tuning.hpp"
#include "mpisim/thread_comm.hpp"
#include "mpisim/world.hpp"
#include "netsim/sim.hpp"
#include "netsim/timeline.hpp"
#include "trace/record.hpp"

namespace bsb {
namespace {

// ------------------------------------------ thread backend == trace counts

TEST(CrossSubstrate, ThreadTrafficMatchesRecordedSchedule) {
  // The SAME algorithm must emit the SAME messages on both substrates.
  struct Case {
    const char* name;
    std::function<void(Comm&, std::span<std::byte>)> run;
  };
  const std::vector<Case> cases{
      {"native", [](Comm& c, std::span<std::byte> b) {
         coll::bcast_scatter_ring_native(c, b, 2);
       }},
      {"tuned", [](Comm& c, std::span<std::byte> b) {
         core::bcast_scatter_ring_tuned(c, b, 2);
       }},
  };
  for (const auto& cs : cases) {
    for (int P : {5, 10, 17}) {
      const std::uint64_t nbytes = 999;
      mpisim::World world(P);
      world.run([&](mpisim::ThreadComm& comm) {
        std::vector<std::byte> buf(nbytes);
        cs.run(comm, buf);
      });
      const auto sched = trace::record_schedule(
          P, nbytes, [&](Comm& comm, std::span<std::byte> buffer) {
            cs.run(comm, buffer);
          });
      EXPECT_EQ(world.total_msgs(), sched.total_sends())
          << cs.name << " P=" << P;
      EXPECT_EQ(world.total_bytes(), sched.total_send_bytes())
          << cs.name << " P=" << P;
    }
  }
}

// ------------------------------------------------- tuned never loses (sim)

struct GridPoint {
  int nranks;
  std::uint64_t nbytes;
  int cores;
};

void PrintTo(const GridPoint& c, std::ostream* os) {
  testutil::print_case_bytes(c, os);
}

class TunedNeverSlower : public ::testing::TestWithParam<GridPoint> {};

TEST_P(TunedNeverSlower, OnSimulatedCluster) {
  const auto [P, nbytes, cores] = GetParam();
  netsim::SimSpec spec{Topology(P, cores, Placement::Block),
                       netsim::CostModel::hornet(), /*iters=*/4};
  const auto native = netsim::simulate_program(
      P, nbytes,
      [](Comm& c, std::span<std::byte> b) {
        coll::bcast_scatter_ring_native(c, b, 0);
      },
      spec);
  const auto tuned = netsim::simulate_program(
      P, nbytes,
      [](Comm& c, std::span<std::byte> b) {
        core::bcast_scatter_ring_tuned(c, b, 0);
      },
      spec);
  // Allow a 2% tolerance: the fluid model is not perfectly monotone in
  // schedule micro-ordering, but the tuned variant must never genuinely
  // lose — that is the paper's core claim.
  EXPECT_LE(tuned.seconds, native.seconds * 1.02)
      << "P=" << P << " nbytes=" << nbytes << " cores=" << cores
      << " native=" << native.seconds << " tuned=" << tuned.seconds;
  EXPECT_LT(tuned.traffic.msgs, native.traffic.msgs);
}

std::vector<GridPoint> grid() {
  std::vector<GridPoint> g;
  for (int P : {9, 16, 33, 64}) {
    for (std::uint64_t n : {std::uint64_t{12288}, std::uint64_t{524288},
                            std::uint64_t{1} << 21}) {
      for (int cores : {8, 24}) g.push_back({P, n, cores});
    }
  }
  return g;
}

INSTANTIATE_TEST_SUITE_P(Grid, TunedNeverSlower, ::testing::ValuesIn(grid()),
                         [](const ::testing::TestParamInfo<GridPoint>& info) {
                           return "P" + std::to_string(info.param.nranks) + "_n" +
                                  std::to_string(info.param.nbytes) + "_c" +
                                  std::to_string(info.param.cores);
                         });

// --------------------------------------------------------------- SMP path

TEST(SmpSim, TunedInterPhaseNotSlower) {
  const int P = 48;  // two 24-core nodes
  const Topology topo = Topology::hornet(P);
  const hier::Topology nodes =
      hier::Topology::uniform(P, topo.cores_per_node());
  netsim::SimSpec spec{topo, netsim::CostModel::hornet(), 6};
  auto run = [&](bool tuned) {
    return netsim::simulate_program(
        P, 200000,
        [&](Comm& c, std::span<std::byte> b) {
          coll::bcast_smp(c, b, 0, nodes,
                          [tuned](Comm& l, std::span<std::byte> lb, int lr) {
                            if (tuned) {
                              core::bcast_scatter_ring_tuned(l, lb, lr);
                            } else {
                              coll::bcast_scatter_ring_native(l, lb, lr);
                            }
                          });
        },
        spec);
  };
  const auto native = run(false);
  const auto tuned = run(true);
  EXPECT_LE(tuned.seconds, native.seconds * 1.02);
  // With only 2 leaders the inter-node ring is tiny; traffic still shrinks.
  EXPECT_LE(tuned.traffic.msgs, native.traffic.msgs);
}

// ---------------------------------------------------------------- Laki too

TEST(LakiModel, SameTrendAsHornet) {
  // The paper: "the results from both Hornet and Laki basically deliver
  // the same bandwidth performance trend."
  for (int P : {10, 16}) {
    netsim::SimSpec spec{Topology(P, 8, Placement::Block),
                        netsim::CostModel::laki(), 4};
    const auto native = netsim::simulate_program(
        P, 1 << 20,
        [](Comm& c, std::span<std::byte> b) {
          coll::bcast_scatter_ring_native(c, b, 0);
        },
        spec);
    const auto tuned = netsim::simulate_program(
        P, 1 << 20,
        [](Comm& c, std::span<std::byte> b) {
          core::bcast_scatter_ring_tuned(c, b, 0);
        },
        spec);
    EXPECT_LE(tuned.seconds, native.seconds * 1.02) << "P=" << P;
  }
}

// ------------------------------------------------------- selector from env

TEST(Tuning, ReadsOverridesFromLookup) {
  const std::map<std::string, std::string> env{
      {"BSB_BCAST_SMSG_LIMIT", "4K"},
      {"BSB_BCAST_MMSG_LIMIT", "1M"},
      {"BSB_BCAST_MIN_PROCS", "2"},
      {"BSB_BCAST_USE_TUNED_RING", "off"},
  };
  const auto cfg = core::load_bcast_config([&](const std::string& k) {
    const auto it = env.find(k);
    return it == env.end() ? std::nullopt : std::optional<std::string>(it->second);
  });
  EXPECT_EQ(cfg.smsg_limit, 4096u);
  EXPECT_EQ(cfg.mmsg_limit, 1048576u);
  EXPECT_EQ(cfg.min_procs_for_scatter, 2);
  EXPECT_FALSE(cfg.use_tuned_ring);
  EXPECT_EQ(core::choose_bcast_algorithm(500000, 10, cfg),
            core::BcastAlgorithm::ScatterRingNative);
}

TEST(Tuning, UnsetVariablesKeepDefaults) {
  const auto cfg = core::load_bcast_config(
      [](const std::string&) { return std::nullopt; });
  EXPECT_EQ(cfg.smsg_limit, kMpichShortMsgLimit);
  EXPECT_EQ(cfg.mmsg_limit, kMpichMediumMsgLimit);
  EXPECT_TRUE(cfg.use_tuned_ring);
}

TEST(Tuning, RejectsGarbage) {
  auto env_with = [](std::string key, std::string value) {
    return [key = std::move(key), value = std::move(value)](const std::string& k)
               -> std::optional<std::string> {
      if (k == key) return value;
      return std::nullopt;
    };
  };
  EXPECT_THROW(core::load_bcast_config(env_with("BSB_BCAST_SMSG_LIMIT", "12x")),
               PreconditionError);
  EXPECT_THROW(core::load_bcast_config(env_with("BSB_BCAST_SMSG_LIMIT", "")),
               PreconditionError);
  EXPECT_THROW(
      core::load_bcast_config(env_with("BSB_BCAST_USE_TUNED_RING", "maybe")),
      PreconditionError);
  // Inconsistent thresholds.
  EXPECT_THROW(core::load_bcast_config(env_with("BSB_BCAST_MMSG_LIMIT", "1K")),
               PreconditionError);
}

TEST(Tuning, EnvRoundTrip) {
  ::setenv("BSB_BCAST_MIN_PROCS", "3", 1);
  const auto cfg = core::load_bcast_config_from_env();
  EXPECT_EQ(cfg.min_procs_for_scatter, 3);
  ::unsetenv("BSB_BCAST_MIN_PROCS");
}

// ---------------------------------------------------------- CPU accounting

TEST(CpuAccounting, TunedSavesHostProcessing) {
  // The paper's §IV argument: fewer transfers => less per-message host
  // work. Verify total CPU-busy time drops, and matches an analytic bound.
  const int P = 10;
  const std::uint64_t nbytes = 10240;  // eager chunks (1 KiB each)
  const netsim::CostModel cost = netsim::CostModel::hornet();
  auto run = [&](bool tuned) {
    const auto sched = trace::record_schedule(
        P, nbytes, [&](Comm& comm, std::span<std::byte> buffer) {
          if (tuned) {
            core::bcast_scatter_ring_tuned(comm, buffer, 0);
          } else {
            coll::bcast_scatter_ring_native(comm, buffer, 0);
          }
        });
    return netsim::replay_schedule(sched, trace::match_schedule(sched),
                                   Topology::single_node(P), cost);
  };
  const auto native = run(false);
  const auto tuned = run(true);
  EXPECT_LT(tuned.total_cpu_busy, native.total_cpu_busy);
  // Each skipped ring transfer saves at least o_send + o_recv of overhead.
  const double min_saving = static_cast<double>(core::tuned_ring_savings(P)) *
                            (cost.o_send + cost.o_recv);
  EXPECT_GE(native.total_cpu_busy - tuned.total_cpu_busy, min_saving * 0.999);
  // Per-rank vector is populated and sums to the total.
  double sum = 0;
  for (double b : tuned.cpu_busy) sum += b;
  EXPECT_DOUBLE_EQ(sum, tuned.total_cpu_busy);
}

// ------------------------------------------------------------- csv exports

TEST(Export, ScheduleAndMessagesCsv) {
  const auto sched = trace::record_schedule(
      4, 64, [](Comm& comm, std::span<std::byte> buffer) {
        coll::bcast_binomial(comm, buffer, 0);
      });
  const auto m = trace::match_schedule(sched);
  const std::string dir = testing::TempDir();
  trace::write_schedule_csv(sched, dir + "/sched.csv");
  trace::write_messages_csv(m, dir + "/msgs.csv");

  std::ifstream s(dir + "/sched.csv"), g(dir + "/msgs.csv");
  std::string line;
  std::getline(s, line);
  EXPECT_EQ(line, "rank,op,kind,dst,send_tag,send_bytes,send_off,src,"
                  "recv_tag,recv_cap,recv_off");
  int sched_rows = 0;
  while (std::getline(s, line)) ++sched_rows;
  EXPECT_EQ(sched_rows, static_cast<int>(sched.total_ops()));

  std::getline(g, line);
  EXPECT_EQ(line, "src,dst,tag,bytes,src_off,dst_off,src_op,dst_op");
  int msg_rows = 0;
  while (std::getline(g, line)) ++msg_rows;
  EXPECT_EQ(msg_rows, 3);  // binomial bcast over 4 ranks
}

// ---------------------------------------------------------------- timeline

TEST(Timeline, RendersReplayGantt) {
  const int P = 8;
  const auto sched = trace::record_schedule(
      P, 64 * P, [](Comm& comm, std::span<std::byte> buffer) {
        core::bcast_scatter_ring_tuned(comm, buffer, 0);
      });
  const auto m = trace::match_schedule(sched);
  const auto result = netsim::replay_schedule(sched, m, Topology::single_node(P),
                                              netsim::CostModel::hornet());
  const std::string gantt = netsim::render_timeline(sched, result, 64);
  EXPECT_NE(gantt.find("p0"), std::string::npos);
  EXPECT_NE(gantt.find("p7"), std::string::npos);
  EXPECT_NE(gantt.find('s'), std::string::npos);  // root streams sends
  EXPECT_NE(gantt.find('r'), std::string::npos);  // rank 7 only receives
  // Op-completion bookkeeping is consistent with rank finish times.
  for (int r = 0; r < P; ++r) {
    ASSERT_FALSE(result.op_complete[r].empty());
    EXPECT_DOUBLE_EQ(result.op_complete[r].back(), result.rank_finish[r]);
  }
}

TEST(Timeline, TruncatesLargeGroups) {
  const int P = 40;
  const auto sched = trace::record_schedule(
      P, 40, [](Comm& comm, std::span<std::byte> buffer) {
        coll::bcast_binomial(comm, buffer, 0);
      });
  const auto m = trace::match_schedule(sched);
  const auto result = netsim::replay_schedule(sched, m, Topology::hornet(P),
                                              netsim::CostModel::hornet());
  const std::string gantt = netsim::render_timeline(sched, result, 40, 8);
  EXPECT_NE(gantt.find("more ranks"), std::string::npos);
}

// ------------------------------------------- replay robustness across shapes

TEST(ReplayRobustness, EveryAlgorithmEveryShapeCompletes) {
  // Sweep every broadcast algorithm through the replay engine across rank
  // counts, sizes (straddling the eager threshold and protocol switches),
  // roots and topologies: the engine must complete every valid schedule
  // (no deadlock, no livelock guard trip) with positive makespan.
  struct Algo {
    core::BcastAlgorithm algo;
    bool pof2_only;
  };
  const std::vector<Algo> algos{
      {core::BcastAlgorithm::Binomial, false},
      {core::BcastAlgorithm::ScatterRdAllgather, true},
      {core::BcastAlgorithm::ScatterRingNative, false},
      {core::BcastAlgorithm::ScatterRingTuned, false},
  };
  for (const Algo& a : algos) {
    for (int P : {2, 3, 8, 24, 33}) {
      if (a.pof2_only && !is_pow2(static_cast<std::uint64_t>(P))) continue;
      for (std::uint64_t nbytes : {std::uint64_t{0}, std::uint64_t{100},
                                   std::uint64_t{12288}, std::uint64_t{300000}}) {
        const int root = P / 2;
        netsim::SimSpec spec{Topology(P, 8, Placement::Block),
                            netsim::CostModel::hornet(), 2};
        const auto r = netsim::simulate_program(
            P, nbytes,
            [&](Comm& comm, std::span<std::byte> buffer) {
              core::run_bcast_algorithm(a.algo, comm, buffer, root);
            },
            spec);
        EXPECT_GT(r.seconds, 0.0)
            << core::to_string(a.algo) << " P=" << P << " n=" << nbytes;
        EXPECT_GT(r.replay.total_cpu_busy, 0.0);
      }
    }
  }
}

TEST(ReplayRobustness, TinyCreditsStillComplete) {
  // Even with a single eager credit per channel, the tuned ring's
  // send-only streaming must degrade gracefully, not deadlock.
  netsim::CostModel cost = netsim::CostModel::hornet();
  cost.eager_credits = 1;
  netsim::SimSpec spec{Topology::single_node(10), cost, 4};
  const auto r = netsim::simulate_program(
      10, 20000,
      [](Comm& comm, std::span<std::byte> buffer) {
        core::bcast_scatter_ring_tuned(comm, buffer, 0);
      },
      spec);
  EXPECT_GT(r.seconds, 0.0);
}

// ------------------------------------------------ pipelining sanity at iters

TEST(IterationScaling, TimeGrowsSublinearlyForEagerBcast) {
  // time(8 iters) < 8 * time(1 iter) thanks to cross-iteration overlap;
  // and more iterations never take less total time.
  const int P = 12;
  const std::uint64_t nbytes = 24000;  // eager chunks
  auto time_for = [&](int iters) {
    netsim::SimSpec spec{Topology::single_node(P), netsim::CostModel::hornet(),
                        iters};
    return netsim::simulate_program(
               P, nbytes,
               [](Comm& c, std::span<std::byte> b) {
                 core::bcast_scatter_ring_tuned(c, b, 0);
               },
               spec)
        .seconds;
  };
  const double t1 = time_for(1), t4 = time_for(4), t8 = time_for(8);
  EXPECT_LT(t8, 8 * t1);
  EXPECT_GT(t8, t4);
  EXPECT_GT(t4, t1);
}

}  // namespace
}  // namespace bsb
