// Correctness tests for the baseline collective algorithms on the thread
// backend (real data movement) and, where applicable, under the symbolic
// coverage validator. Parameterized sweeps cover power-of-two and
// non-power-of-two counts, ragged sizes, and every root position class.
#include <gtest/gtest.h>

#include <tuple>

#include "bcast_test_util.hpp"
#include "case_bytes.hpp"
#include "coll/allgather_bruck.hpp"
#include "coll/allgather_neighbor_exchange.hpp"
#include "coll/allgather_recursive_doubling.hpp"
#include "coll/allgather_ring_native.hpp"
#include "coll/bcast_binomial.hpp"
#include "coll/bcast_ring_pipelined.hpp"
#include "coll/bcast_scatter_rd.hpp"
#include "coll/bcast_scatter_ring_native.hpp"
#include "coll/bcast_smp.hpp"
#include "coll/scatter_binomial.hpp"
#include "bsbutil/math.hpp"
#include "comm/chunks.hpp"
#include "trace/counters.hpp"

namespace bsb {
namespace {

using testutil::check_bcast_coverage;
using testutil::check_bcast_on_threads;

// -------------------------------------------------------- scatter_binomial

TEST(ScatterBinomial, SubtreeSpans) {
  // P=8 (Fig. 1): blocks {8,1,2,1,4,1,2,1}.
  const int span8[] = {8, 1, 2, 1, 4, 1, 2, 1};
  for (int rel = 0; rel < 8; ++rel) {
    EXPECT_EQ(coll::scatter_subtree_span(rel, 8), span8[rel]) << rel;
  }
  // P=10 (Fig. 2): rank 8's subtree clamps to 2 chunks {8,9}.
  const int span10[] = {10, 1, 2, 1, 4, 1, 2, 1, 2, 1};
  for (int rel = 0; rel < 10; ++rel) {
    EXPECT_EQ(coll::scatter_subtree_span(rel, 10), span10[rel]) << rel;
  }
}

TEST(ScatterBinomial, EveryRankGetsItsBlock) {
  for (int P : {2, 3, 8, 10, 13}) {
    for (int root : {0, P - 1}) {
      const std::uint64_t nbytes = 97;  // ragged on purpose
      const std::uint64_t seed = 77;
      mpisim::World world(P);
      world.run([&](mpisim::ThreadComm& comm) {
        std::vector<std::byte> buf(nbytes);
        if (comm.rank() == root) fill_pattern(buf, seed);
        const ChunkLayout layout(nbytes, P);
        const std::uint64_t held =
            coll::scatter_binomial(comm, buf, root, layout);
        const int rel = rel_rank(comm.rank(), root, P);
        EXPECT_EQ(held, coll::scatter_block_bytes(rel, layout));
        // The held block must carry the root's bytes at home offsets.
        const std::uint64_t off = layout.disp(rel);
        EXPECT_EQ(first_pattern_mismatch(
                      std::span<const std::byte>(buf.data() + off,
                                                 static_cast<std::size_t>(held)),
                      seed, off),
                  held);
      });
    }
  }
}

TEST(ScatterBinomial, MessageCountIsPMinusOne) {
  // With nbytes >= P every rank receives exactly one scatter message.
  const int P = 10;
  const auto sched = trace::record_schedule(
      P, 1000, [&](Comm& comm, std::span<std::byte> buffer) {
        coll::scatter_binomial(comm, buffer, 0, ChunkLayout(1000, P));
      });
  EXPECT_EQ(sched.total_sends(), static_cast<std::uint64_t>(P - 1));
}

// --------------------------------------------------- broadcast correctness

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
        if (root == P - 1) break;  // avoid duplicate root for P<=2
      }
    }
  }
  return cases;
}

class BcastSweep : public ::testing::TestWithParam<BcastCase> {};

std::string case_name(const BcastCase& c) {
  return "P" + std::to_string(c.nranks) + "_n" + std::to_string(c.nbytes) +
         "_r" + std::to_string(c.root);
}

TEST_P(BcastSweep, Binomial) {
  const auto& c = GetParam();
  check_bcast_on_threads(c.nranks, c.nbytes, c.root,
                         [](Comm& comm, std::span<std::byte> buf, int root) {
                           coll::bcast_binomial(comm, buf, root);
                         });
}

TEST_P(BcastSweep, ScatterRingNative) {
  const auto& c = GetParam();
  check_bcast_on_threads(c.nranks, c.nbytes, c.root,
                         [](Comm& comm, std::span<std::byte> buf, int root) {
                           coll::bcast_scatter_ring_native(comm, buf, root);
                         });
}

TEST_P(BcastSweep, ScatterRingNativeCoverage) {
  const auto& c = GetParam();
  check_bcast_coverage(c.nranks, c.nbytes, c.root,
                       [](Comm& comm, std::span<std::byte> buf, int root) {
                         coll::bcast_scatter_ring_native(comm, buf, root);
                       });
}

TEST_P(BcastSweep, RingPipelined) {
  const auto& c = GetParam();
  check_bcast_on_threads(c.nranks, c.nbytes, c.root,
                         [](Comm& comm, std::span<std::byte> buf, int root) {
                           coll::bcast_ring_pipelined(comm, buf, root, 1024);
                         });
}

INSTANTIATE_TEST_SUITE_P(Sweep, BcastSweep, ::testing::ValuesIn(sweep_cases()),
                         [](const ::testing::TestParamInfo<BcastCase>& info) {
                           return case_name(info.param);
                         });

// bcast_scatter_rd needs a power-of-two group, so it runs over the
// power-of-two subset of sweep_cases() only. A TEST_P would be instantiated
// over every case, so the subset is registered directly, under the same
// Sweep/BcastSweep names the parameterized tests carry.
class ScatterRdWhenPof2 : public BcastSweep {
 public:
  explicit ScatterRdWhenPof2(BcastCase c) : c_(c) {}
  void TestBody() override {
    check_bcast_on_threads(c_.nranks, c_.nbytes, c_.root,
                           [](Comm& comm, std::span<std::byte> buf, int root) {
                             coll::bcast_scatter_rd(comm, buf, root);
                           });
  }

 private:
  BcastCase c_;
};

[[maybe_unused]] const bool kScatterRdRegistered = [] {
  for (const BcastCase& c : sweep_cases()) {
    if (!is_pow2(static_cast<std::uint64_t>(c.nranks))) continue;
    ::testing::RegisterTest(
        "Sweep/BcastSweep", ("ScatterRdWhenPof2/" + case_name(c)).c_str(),
        nullptr, ::testing::PrintToString(c).c_str(), __FILE__, __LINE__,
        [c]() -> BcastSweep* { return new ScatterRdWhenPof2(c); });
  }
  return true;
}();

// ------------------------------------------------------------ larger cases

TEST(BcastLarge, NativeRingRendezvousPath) {
  mpisim::WorldConfig cfg;
  cfg.eager_threshold = 1024;  // chunks of this size go rendezvous
  check_bcast_on_threads(10, 300000, 3,
                         [](Comm& comm, std::span<std::byte> buf, int root) {
                           coll::bcast_scatter_ring_native(comm, buf, root);
                         },
                         cfg);
}

TEST(BcastLarge, RdRendezvousPath) {
  mpisim::WorldConfig cfg;
  cfg.eager_threshold = 1024;
  check_bcast_on_threads(8, 262144, 1,
                         [](Comm& comm, std::span<std::byte> buf, int root) {
                           coll::bcast_scatter_rd(comm, buf, root);
                         },
                         cfg);
}

// ------------------------------------------------------- recursive doubling

TEST(AllgatherRd, RejectsNonPowerOfTwo) {
  const auto program = [](Comm& comm, std::span<std::byte> buffer) {
    const ChunkLayout layout(90, comm.size());
    coll::allgather_recursive_doubling(comm, buffer, 0, layout);
  };
  EXPECT_THROW(trace::record_schedule(10, 90, program), PreconditionError);
}

// ------------------------------------------------------------------- bruck

TEST(AllgatherBruck, GathersAllBlocks) {
  for (int P : {1, 2, 3, 5, 8, 13}) {
    const std::uint64_t block = 33;
    mpisim::World world(P);
    world.run([&](mpisim::ThreadComm& comm) {
      std::vector<std::byte> buf(P * block);
      fill_pattern(std::span<std::byte>(buf.data() + comm.rank() * block, block),
                   1000 + comm.rank());
      coll::allgather_bruck(comm, buf, block);
      for (int r = 0; r < P; ++r) {
        EXPECT_EQ(first_pattern_mismatch(
                      std::span<const std::byte>(buf.data() + r * block, block),
                      1000 + r),
                  block)
            << "rank " << comm.rank() << " block of " << r;
      }
    });
  }
}

TEST(AllgatherBruck, LogarithmicMessageCount) {
  // Bruck sends ceil(log2 P) messages per rank.
  mpisim::World world(10);
  world.run([](mpisim::ThreadComm& comm) {
    std::vector<std::byte> buf(10 * 8);
    fill_pattern(std::span<std::byte>(buf.data() + comm.rank() * 8, 8), 1);
    coll::allgather_bruck(comm, buf, 8);
  });
  EXPECT_EQ(world.total_msgs(), 10u * 4u);  // ceil(log2 10) = 4
}

TEST(AllgatherBruck, RejectsWrongBufferSize) {
  mpisim::World world(2);
  world.run([](mpisim::ThreadComm& comm) {
    std::vector<std::byte> buf(7);
    EXPECT_THROW(coll::allgather_bruck(comm, buf, 4), PreconditionError);
  });
}

// ------------------------------------------------------- neighbor exchange

TEST(AllgatherNeighborExchange, GathersAllBlocksEvenP) {
  for (int P : {2, 4, 6, 10, 16, 24}) {
    const std::uint64_t block = 41;
    mpisim::World world(P);
    world.run([&](mpisim::ThreadComm& comm) {
      std::vector<std::byte> buf(P * block);
      fill_pattern(std::span<std::byte>(buf.data() + comm.rank() * block, block),
                   2000 + comm.rank());
      coll::allgather_neighbor_exchange(comm, buf, block);
      for (int r = 0; r < P; ++r) {
        EXPECT_EQ(first_pattern_mismatch(
                      std::span<const std::byte>(buf.data() + r * block, block),
                      2000 + r),
                  block)
            << "P=" << P << " rank " << comm.rank() << " block of " << r;
      }
    });
  }
}

TEST(AllgatherNeighborExchange, HalfTheRingsMessages) {
  const int P = 12;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    std::vector<std::byte> buf(P * 8);
    fill_pattern(std::span<std::byte>(buf.data() + comm.rank() * 8, 8), 3);
    coll::allgather_neighbor_exchange(comm, buf, 8);
  });
  // P/2 sendrecv steps per rank = P/2 sends per rank.
  EXPECT_EQ(world.total_msgs(), static_cast<std::uint64_t>(P) * (P / 2));
}

TEST(AllgatherNeighborExchange, RejectsOddP) {
  mpisim::World world(3);
  world.run([](mpisim::ThreadComm& comm) {
    std::vector<std::byte> buf(3 * 8);
    EXPECT_THROW(coll::allgather_neighbor_exchange(comm, buf, 8),
                 PreconditionError);
  });
}

TEST(AllgatherNeighborExchange, ZeroByteBlocks) {
  mpisim::World world(6);
  world.run([](mpisim::ThreadComm& comm) {
    std::vector<std::byte> buf;
    EXPECT_NO_THROW(
        coll::allgather_neighbor_exchange(comm, std::span<std::byte>(buf), 0));
  });
}

// --------------------------------------------------------------------- smp

class SmpBcastTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SmpBcastTest, CorrectOnThreads) {
  const auto [P, cores, root] = GetParam();
  const hier::Topology topo = hier::Topology::uniform(P, cores);
  check_bcast_on_threads(
      P, 7777, root, [&](Comm& comm, std::span<std::byte> buf, int r) {
        coll::bcast_smp(comm, buf, r, topo,
                        [](Comm& leaders, std::span<std::byte> b, int lr) {
                          coll::bcast_scatter_ring_native(leaders, b, lr);
                        });
      });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SmpBcastTest,
    ::testing::Values(std::make_tuple(8, 4, 0), std::make_tuple(8, 4, 5),
                      std::make_tuple(9, 4, 2), std::make_tuple(12, 4, 11),
                      std::make_tuple(10, 3, 7), std::make_tuple(6, 6, 3),
                      std::make_tuple(5, 1, 2), std::make_tuple(24, 8, 9)));

TEST(SmpBcast, InterNodeTrafficOnlyBetweenLeaders) {
  // Record the SMP broadcast and verify only leader pairs talk inter-node.
  const int P = 12, cores = 4;
  const hier::Topology topo = hier::Topology::uniform(P, cores);
  const auto sched = trace::record_schedule(
      P, 4096, [&](Comm& comm, std::span<std::byte> buffer) {
        coll::bcast_smp(comm, buffer, 5, topo,
                        [](Comm& leaders, std::span<std::byte> b, int lr) {
                          coll::bcast_scatter_ring_native(leaders, b, lr);
                        });
      });
  const auto m = trace::match_schedule(sched);
  // Leaders: node 0 -> 0, node 1 (root's node) -> 5, node 2 -> 8.
  for (const auto& msg : m.msgs) {
    if (topo.node_of(msg.src) != topo.node_of(msg.dst)) {
      EXPECT_TRUE(msg.src == 0 || msg.src == 5 || msg.src == 8) << msg.src;
      EXPECT_TRUE(msg.dst == 0 || msg.dst == 5 || msg.dst == 8) << msg.dst;
    }
  }
  // And the result is still a correct broadcast.
  const auto report = trace::validate_coverage(sched, m, 5);
  EXPECT_TRUE(report.ok) << report.diagnostics;
}

}  // namespace
}  // namespace bsb
