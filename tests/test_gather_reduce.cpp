// Tests for the gather / scatter / reduce / allreduce / alltoall
// collectives and comm_split —
// the rest of the collective family a downstream user expects next to the
// broadcast, all running on the thread backend with real data.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "bsbutil/rng.hpp"
#include "case_bytes.hpp"
#include "coll/alltoall.hpp"
#include "coll/comm_split.hpp"
#include "coll/gather_binomial.hpp"
#include "coll/reduce.hpp"
#include "coll/scatter.hpp"
#include "mpisim/thread_comm.hpp"
#include "mpisim/world.hpp"
#include "trace/match.hpp"
#include "trace/record.hpp"

namespace bsb {
namespace {

// ----------------------------------------------------------------- gather

struct GatherCase {
  int nranks;
  std::uint64_t block;
  int root;
};

void PrintTo(const GatherCase& c, std::ostream* os) {
  testutil::print_case_bytes(c, os);
}

class GatherSweep : public ::testing::TestWithParam<GatherCase> {};

TEST_P(GatherSweep, CollectsAllBlocksInRankOrder) {
  const auto [P, block, root] = GetParam();
  mpisim::World world(P);
  world.run([&, P = P, block = block, root = root](mpisim::ThreadComm& comm) {
    std::vector<std::byte> mine(block);
    fill_pattern(mine, 500 + comm.rank());
    std::vector<std::byte> all(comm.rank() == root ? P * block : 0);
    coll::gather_binomial(comm, mine, all, block, root);
    if (comm.rank() == root) {
      for (int r = 0; r < P; ++r) {
        EXPECT_EQ(first_pattern_mismatch(
                      std::span<const std::byte>(all.data() + r * block, block),
                      500 + r),
                  block)
            << "block of rank " << r;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GatherSweep,
    ::testing::Values(GatherCase{1, 16, 0}, GatherCase{2, 8, 1},
                      GatherCase{3, 5, 2}, GatherCase{8, 64, 0},
                      GatherCase{8, 64, 5}, GatherCase{10, 33, 7},
                      GatherCase{13, 1, 12}, GatherCase{16, 0, 3},
                      GatherCase{24, 129, 23}),
    [](const ::testing::TestParamInfo<GatherCase>& info) {
      return "P" + std::to_string(info.param.nranks) + "_b" +
             std::to_string(info.param.block) + "_r" +
             std::to_string(info.param.root);
    });

TEST(Gather, UsesPMinusOneMessages) {
  const int P = 10;
  const auto sched = trace::record_schedule(
      P, 0, [&](Comm& comm, std::span<std::byte>) {
        std::vector<std::byte> mine(8);
        std::vector<std::byte> all(comm.rank() == 3 ? P * 8 : 0);
        coll::gather_binomial(comm, mine, all, 8, 3);
      });
  EXPECT_EQ(sched.total_sends(), static_cast<std::uint64_t>(P - 1));
  EXPECT_NO_THROW(trace::match_schedule(sched));
}

TEST(Gather, RejectsBadArguments) {
  mpisim::World world(2);
  world.run([](mpisim::ThreadComm& comm) {
    std::vector<std::byte> mine(8), all(16);
    EXPECT_THROW(coll::gather_binomial(comm, mine, all, 4, 0),
                 PreconditionError);  // sendbuf != block
    if (comm.rank() == 0) {
      std::vector<std::byte> small(8);
      EXPECT_THROW(coll::gather_binomial(comm, mine, small, 8, 0),
                   PreconditionError);  // root recvbuf too small
    }
  });
}

// ----------------------------------------------------------------- reduce

TEST(Reduce, SumsDoublesAtRoot) {
  for (int P : {1, 2, 7, 8, 10, 16}) {
    for (int root : {0, P - 1}) {
      mpisim::World world(P);
      world.run([&](mpisim::ThreadComm& comm) {
        std::vector<double> vals(5);
        for (std::size_t i = 0; i < vals.size(); ++i) {
          vals[i] = comm.rank() + static_cast<double>(i) * 0.5;
        }
        std::vector<double> result(comm.rank() == root ? 5 : 0);
        coll::reduce_binomial(comm, std::span<const double>(vals),
                              std::span<double>(result), coll::SumOp{}, root);
        if (comm.rank() == root) {
          const double ranksum = P * (P - 1) / 2.0;
          for (std::size_t i = 0; i < result.size(); ++i) {
            EXPECT_DOUBLE_EQ(result[i],
                             ranksum + P * (static_cast<double>(i) * 0.5))
                << i;
          }
        }
      });
    }
  }
}

TEST(Reduce, MaxAndMinOfInts) {
  const int P = 9;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    // Values arranged so extremes live at non-root ranks.
    std::vector<std::int64_t> v{(comm.rank() + 3) % P, -(comm.rank() * 7)};
    std::vector<std::int64_t> mx(comm.rank() == 0 ? 2 : 0), mn = mx;
    coll::reduce_binomial(comm, std::span<const std::int64_t>(v),
                          std::span<std::int64_t>(mx), coll::MaxOp{}, 0);
    coll::reduce_binomial(comm, std::span<const std::int64_t>(v),
                          std::span<std::int64_t>(mn), coll::MinOp{}, 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(mx[0], P - 1);
      EXPECT_EQ(mx[1], 0);
      EXPECT_EQ(mn[0], 0);
      EXPECT_EQ(mn[1], -7 * (P - 1));
    }
  });
}

TEST(Reduce, MessageCountIsPMinusOne) {
  const int P = 12;
  const auto sched = trace::record_schedule(
      P, 0, [&](Comm& comm, std::span<std::byte>) {
        std::vector<double> v{1.0};
        std::vector<double> out(comm.rank() == 0 ? 1 : 0);
        coll::reduce_binomial(comm, std::span<const double>(v),
                              std::span<double>(out), coll::SumOp{}, 0);
      });
  EXPECT_EQ(sched.total_sends(), static_cast<std::uint64_t>(P - 1));
}

// -------------------------------------------------------------- allreduce

TEST(Allreduce, PowerOfTwoRecursiveDoubling) {
  const int P = 8;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    std::vector<double> v{static_cast<double>(comm.rank()), 1.0};
    coll::allreduce(comm, std::span<double>(v), coll::SumOp{});
    EXPECT_DOUBLE_EQ(v[0], P * (P - 1) / 2.0);
    EXPECT_DOUBLE_EQ(v[1], P);
  });
  // log2(P) rounds, each rank one sendrecv per round.
  EXPECT_EQ(world.total_msgs(), static_cast<std::uint64_t>(P) * 3);
}

TEST(Allreduce, NonPowerOfTwoFallback) {
  for (int P : {1, 3, 9, 10}) {
    mpisim::World world(P);
    world.run([&](mpisim::ThreadComm& comm) {
      std::vector<std::int64_t> v{comm.rank() + 1ll};
      coll::allreduce(comm, std::span<std::int64_t>(v), coll::SumOp{});
      EXPECT_EQ(v[0], static_cast<std::int64_t>(P) * (P + 1) / 2);
    });
  }
}

TEST(Allreduce, MaxAcrossRanks) {
  const int P = 16;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    std::vector<int> v{(comm.rank() * 5) % P};
    coll::allreduce(comm, std::span<int>(v), coll::MaxOp{});
    EXPECT_EQ(v[0], P - 1);  // 5 is coprime with 16: all residues appear
  });
}

// ---------------------------------------------------------------- scatter

struct ScatterCase {
  int nranks;
  std::uint64_t block;
  int root;
};

void PrintTo(const ScatterCase& c, std::ostream* os) {
  testutil::print_case_bytes(c, os);
}

class ScatterSweep : public ::testing::TestWithParam<ScatterCase> {};

TEST_P(ScatterSweep, EachRankGetsItsOwnBlock) {
  const auto [P, block, root] = GetParam();
  mpisim::World world(P);
  world.run([&, P = P, block = block, root = root](mpisim::ThreadComm& comm) {
    std::vector<std::byte> all(comm.rank() == root ? P * block : 0);
    if (comm.rank() == root) {
      for (int r = 0; r < P; ++r) {
        fill_pattern(std::span<std::byte>(all.data() + r * block, block),
                     800 + r);
      }
    }
    std::vector<std::byte> mine(block);
    coll::scatter(comm, all, mine, block, root);
    EXPECT_EQ(first_pattern_mismatch(mine, 800 + comm.rank()), block)
        << "rank " << comm.rank();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ScatterSweep,
    ::testing::Values(ScatterCase{1, 8, 0}, ScatterCase{2, 16, 1},
                      ScatterCase{3, 7, 2}, ScatterCase{8, 100, 0},
                      ScatterCase{10, 33, 4}, ScatterCase{13, 1, 12},
                      ScatterCase{16, 0, 5}, ScatterCase{24, 64, 17}),
    [](const ::testing::TestParamInfo<ScatterCase>& info) {
      return "P" + std::to_string(info.param.nranks) + "_b" +
             std::to_string(info.param.block) + "_r" +
             std::to_string(info.param.root);
    });

TEST(Scatter, UsesPMinusOneMessages) {
  const int P = 12;
  const auto sched = trace::record_schedule(
      P, 0, [&](Comm& comm, std::span<std::byte>) {
        std::vector<std::byte> all(comm.rank() == 0 ? P * 8 : 0);
        std::vector<std::byte> mine(8);
        coll::scatter(comm, all, mine, 8, 0);
      });
  EXPECT_EQ(sched.total_sends(), static_cast<std::uint64_t>(P - 1));
}

TEST(Scatter, GatherRoundTrip) {
  // scatter then gather back: the root must recover its exact buffer.
  const int P = 9;
  const std::uint64_t block = 50;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    std::vector<std::byte> original(P * block), recovered(P * block);
    if (comm.rank() == 2) fill_pattern(original, 12345);
    std::vector<std::byte> mine(block);
    coll::scatter(comm, original, mine, block, 2);
    coll::gather_binomial(comm, mine, recovered, block, 2);
    if (comm.rank() == 2) {
      EXPECT_EQ(first_pattern_mismatch(recovered, 12345), recovered.size());
    }
  });
}

// ---------------------------------------------------------------- alltoall

TEST(Alltoall, ExchangesAllBlocks) {
  for (int P : {1, 2, 4, 5, 8, 11}) {
    const std::uint64_t block = 24;
    mpisim::World world(P);
    world.run([&](mpisim::ThreadComm& comm) {
      const int me = comm.rank();
      std::vector<std::byte> out(P * block), in(P * block);
      for (int d = 0; d < P; ++d) {
        // Block for destination d, tagged by (me, d).
        fill_pattern(std::span<std::byte>(out.data() + d * block, block),
                     static_cast<std::uint64_t>(me) * 100 + d);
      }
      coll::alltoall_pairwise(comm, out, in, block);
      for (int s = 0; s < P; ++s) {
        EXPECT_EQ(first_pattern_mismatch(
                      std::span<const std::byte>(in.data() + s * block, block),
                      static_cast<std::uint64_t>(s) * 100 + me),
                  block)
            << "P=" << P << " rank " << me << " block from " << s;
      }
    });
  }
}

TEST(Alltoall, MessageCountIsPTimesPMinusOne) {
  const int P = 6;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    std::vector<std::byte> out(P * 8), in(P * 8);
    coll::alltoall_pairwise(comm, out, in, 8);
  });
  EXPECT_EQ(world.total_msgs(), static_cast<std::uint64_t>(P) * (P - 1));
}

TEST(Alltoall, RejectsWrongBufferSizes) {
  mpisim::World world(2);
  world.run([](mpisim::ThreadComm& comm) {
    std::vector<std::byte> small(8), right(16);
    EXPECT_THROW(coll::alltoall_pairwise(comm, small, right, 8),
                 PreconditionError);
    EXPECT_THROW(coll::alltoall_pairwise(comm, right, small, 8),
                 PreconditionError);
  });
}

// ------------------------------------------------------------- comm_split

TEST(CommSplit, GroupsByColorOrdersByKey) {
  const int P = 9;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    const int color = comm.rank() % 3;
    const int key = -comm.rank();  // reverse order inside each group
    auto sub = coll::comm_split(comm, color, key, /*base_context=*/10);
    ASSERT_TRUE(sub.has_value());
    EXPECT_EQ(sub->size(), 3);
    // Keys are descending with rank, so subgroup rank 0 is the HIGHEST
    // parent rank of the color class.
    EXPECT_EQ(sub->parent_rank(0), 6 + color);
    EXPECT_EQ(sub->parent_rank(2), color);
    // The groups work: broadcast inside each.
    std::vector<std::byte> buf(100);
    if (sub->rank() == 0) fill_pattern(buf, 40 + color);
    coll::bcast_binomial(*sub, buf, 0);
    EXPECT_EQ(first_pattern_mismatch(buf, 40 + color), buf.size());
  });
}

TEST(CommSplit, UndefinedColorOptsOut) {
  const int P = 5;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    const int color = comm.rank() == 4 ? coll::kUndefinedColor : 0;
    auto sub = coll::comm_split(comm, color, 0, 1);
    if (comm.rank() == 4) {
      EXPECT_FALSE(sub.has_value());
    } else {
      ASSERT_TRUE(sub.has_value());
      EXPECT_EQ(sub->size(), 4);
      EXPECT_EQ(sub->rank(), comm.rank());
    }
  });
}

TEST(CommSplit, StableOrderOnEqualKeys) {
  const int P = 6;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    auto sub = coll::comm_split(comm, 0, /*key=*/0, 1);
    ASSERT_TRUE(sub.has_value());
    // Equal keys: parent rank order, as MPI specifies.
    EXPECT_EQ(sub->rank(), comm.rank());
  });
}

TEST(CommSplit, ConcurrentDisjointGroupsCommunicate) {
  const int P = 8;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    auto sub = coll::comm_split(comm, comm.rank() / 4, comm.rank(), 1);
    ASSERT_TRUE(sub.has_value());
    // Both groups run a ring exchange with the SAME user tag concurrently;
    // context separation must keep them isolated.
    const int n = sub->size();
    std::byte out{static_cast<unsigned char>(comm.rank())};
    std::byte in{};
    sub->sendrecv({&out, 1}, (sub->rank() + 1) % n, 4, {&in, 1},
                  (sub->rank() + n - 1) % n, 4);
    const int expect_parent =
        sub->parent_rank((sub->rank() + n - 1) % n);
    EXPECT_EQ(std::to_integer<int>(in), expect_parent);
  });
}

TEST(CommSplit, RejectsBadArguments) {
  mpisim::World world(2);
  world.run([](mpisim::ThreadComm& comm) {
    EXPECT_THROW(coll::comm_split(comm, -5, 0, 1), PreconditionError);
    EXPECT_THROW(coll::comm_split(comm, 0, 0, 0), PreconditionError);
  });
}

}  // namespace
}  // namespace bsb
