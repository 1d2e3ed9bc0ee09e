// Tests for the concurrent-collective serving layer: coll::Plan, the
// process-wide schedule cache, the per-rank progress engine and the
// nonblocking core::ibcast / core::iallgather entry points.
//
// The oracle strategy mirrors the fuzz harness: nonblocking results must
// be byte-identical to the blocking algorithms they were compiled from
// (the deterministic fill_pattern/first_pattern_mismatch byte oracles),
// across roots, sizes, rank counts, split communicators, many concurrent
// in-flight operations, and under deterministic fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "bsbutil/rng.hpp"
#include "coll/comm_split.hpp"
#include "coll/plan.hpp"
#include "coll/scatter_binomial.hpp"
#include "coll/schedule_cache.hpp"
#include "comm/chunks.hpp"
#include "comm/subcomm.hpp"
#include "core/bcast.hpp"
#include "core/icoll.hpp"
#include "core/persistent_bcast.hpp"
#include "core/transfer_analysis.hpp"
#include "mpisim/progress.hpp"
#include "mpisim/world.hpp"

namespace bsb {
namespace {

using mpisim::CollRequest;

// ------------------------------------------------------------- coll::Plan

TEST(Plan, CompilesBcastForEveryRankAndCountsSends) {
  // P=8 tuned ring at 1 MiB: the paper's 56 -> 44 transfer saving, plus
  // the 7 binomial scatter sends = 51 total messages.
  const int P = 8;
  const std::uint64_t nbytes = 1 << 20;
  const coll::Plan plan = coll::compile_plan(
      P, nbytes, "tuned",
      [](Comm& c, std::span<std::byte> buf) {
        core::run_bcast_algorithm(core::BcastAlgorithm::ScatterRingTuned, c,
                                  buf, 0);
      });
  ASSERT_EQ(plan.ops.size(), 8u);
  const std::uint64_t expected =
      core::scatter_transfers(P, nbytes) + core::tuned_ring_transfers(P);
  EXPECT_EQ(plan.total_sends(), expected);  // 7 + 44 at P=8
  EXPECT_LT(plan.max_tag, mpisim::ProgressEngine::kCtxStride);
}

TEST(Plan, RejectsUnreplayablePrograms) {
  // A plan replays offset-relative over the one collective buffer, with
  // one tag per op: each of these programs breaks that.
  struct Rejected {
    const char* message;
    trace::RankProgram program;
  };
  const Rejected table[] = {
      {"compile_plan: algorithm uses barriers",
       [](Comm& c, std::span<std::byte>) { c.barrier(); }},
      {"compile_plan: algorithm used scratch memory",
       [](Comm& c, std::span<std::byte>) {
         std::vector<std::byte> foreign(4);
         if (c.rank() == 0) {
           c.send(foreign, 1, 0);
         } else {
           c.recv(foreign, 0, 0);
         }
       }},
      {"compile_plan: sendrecv halves use different tags",
       [](Comm& c, std::span<std::byte> buf) {
         const int peer = 1 - c.rank();
         c.sendrecv(buf.first(8), peer, /*sendtag=*/1, buf.last(8), peer,
                    /*recvtag=*/2);
       }},
  };
  for (const Rejected& r : table) {
    try {
      coll::compile_plan(2, 16, "rejected", r.program);
      ADD_FAILURE() << "accepted a program that should fail: " << r.message;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(r.message), std::string::npos)
          << e.what();
    }
  }
}

TEST(Plan, BlockingReplayMatchesDirectRun) {
  const int P = 10;
  const std::uint64_t nbytes = 30000;
  auto plan = core::bcast_plan(P, nbytes, /*root=*/4);
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    std::vector<std::byte> buf(nbytes);
    if (comm.rank() == 4) fill_pattern(buf, 77);
    coll::execute_plan_rank(comm, *plan, comm.rank(), buf, /*root=*/4);
    EXPECT_EQ(first_pattern_mismatch(buf, 77), buf.size());
  });
}

// ---------------------------------------------------------- ScheduleCache

TEST(ScheduleCache, HitMissAndEvictionCounters) {
  coll::ScheduleCache cache(/*capacity=*/2);
  int builds = 0;
  const auto build = [&](std::uint64_t nbytes) {
    return [&builds, nbytes] {
      ++builds;
      return coll::compile_plan(4, nbytes, "bcast",
                                [](Comm& c, std::span<std::byte> buf) {
                                  core::bcast(c, buf, 0);
                                });
    };
  };
  const coll::PlanKey k0{4, 64, 0}, k1{4, 128, 0}, k2{4, 256, 0};

  auto p0 = cache.get_or_build(k0, build(64));
  EXPECT_EQ(builds, 1);
  auto p0b = cache.get_or_build(k0, build(64));
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(p0.get(), p0b.get());  // same shared plan

  cache.get_or_build(k1, build(128));
  cache.get_or_build(k2, build(256));  // capacity 2: evicts k0 (LRU)
  EXPECT_EQ(builds, 3);

  const auto s1 = cache.stats();
  EXPECT_EQ(s1.hits, 1u);
  EXPECT_EQ(s1.misses, 3u);
  EXPECT_EQ(s1.evictions, 1u);
  EXPECT_EQ(s1.size, 2u);
  EXPECT_DOUBLE_EQ(s1.hit_rate(), 0.25);

  cache.get_or_build(k0, build(64));  // rebuilt after eviction
  EXPECT_EQ(builds, 4);
  // The evicted plan handle stays alive through its shared_ptr.
  EXPECT_EQ(p0->nranks, 4);

  cache.clear();
  const auto s2 = cache.stats();
  EXPECT_EQ(s2.size, 0u);
  EXPECT_EQ(s2.hits + s2.misses + s2.evictions, 0u);
}

TEST(ScheduleCache, LruRefreshOnHit) {
  coll::ScheduleCache cache(/*capacity=*/2);
  const auto build = [](std::uint64_t nbytes) {
    return coll::compile_plan(2, nbytes, "b",
                              [](Comm& c, std::span<std::byte> buf) {
                                core::bcast(c, buf, 0);
                              });
  };
  const coll::PlanKey k0{2, 8, 0}, k1{2, 16, 0}, k2{2, 8, 1};
  cache.get_or_build(k0, [&] { return build(8); });
  cache.get_or_build(k1, [&] { return build(16); });
  cache.get_or_build(k0, [&] { return build(8); });  // refresh k0
  cache.get_or_build(k2, [&] { return build(8); });  // evicts k1, not k0
  const auto before = cache.stats();
  cache.get_or_build(k0, [&] { return build(8); });
  EXPECT_EQ(cache.stats().hits, before.hits + 1);  // k0 survived
}

TEST(ScheduleCache, SetCapacityEvicts) {
  coll::ScheduleCache cache(/*capacity=*/8);
  for (int algorithm = 0; algorithm < 4; ++algorithm) {
    cache.get_or_build({4, 32, algorithm}, [] {
      return coll::compile_plan(4, 32, "b",
                                [](Comm& c, std::span<std::byte> buf) {
                                  core::bcast(c, buf, 0);
                                });
    });
  }
  cache.set_capacity(1);
  const auto s = cache.stats();
  EXPECT_EQ(s.size, 1u);
  EXPECT_EQ(s.evictions, 3u);
}

// ----------------------------------------------------- ibcast correctness

// One world per P; every root broadcast twice (small -> binomial, larger
// -> scatter-based) and checked byte-for-byte against the root pattern.
void check_ibcast_all_roots(int P, std::span<const std::uint64_t> sizes) {
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    for (const std::uint64_t nbytes : sizes) {
      for (int root = 0; root < P; ++root) {
        const std::uint64_t seed =
            1000 + nbytes * static_cast<std::uint64_t>(P) +
            static_cast<std::uint64_t>(root);
        std::vector<std::byte> buf(nbytes);
        fill_pattern(buf, ~seed);  // garbage
        if (comm.rank() == root) fill_pattern(buf, seed);
        CollRequest req = core::ibcast(comm, buf, root);
        req.wait();
        ASSERT_EQ(first_pattern_mismatch(buf, seed), buf.size())
            << "P=" << P << " root=" << root << " nbytes=" << nbytes
            << " rank=" << comm.rank();
      }
    }
  });
}

TEST(Ibcast, MatchesBlockingAcrossAllRootsP2to32) {
  const std::uint64_t sizes[] = {1000, 30000};
  for (int P = 2; P <= 32; ++P) check_ibcast_all_roots(P, sizes);
}

TEST(Ibcast, MatchesBlockingAcrossAllRootsP33to64) {
  const std::uint64_t sizes[] = {999, 24001};
  for (int P = 33; P <= 64; ++P) check_ibcast_all_roots(P, sizes);
}

TEST(Ibcast, SixtyFourConcurrentBroadcastsInFlight) {
  // >= 64 collectives in flight per rank at once, mixed roots and sizes,
  // started back-to-back and only then completed (in reverse order, to
  // prove completion order is free).
  const int P = 8;
  const int kInFlight = 64;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    std::vector<std::vector<std::byte>> bufs(kInFlight);
    std::vector<CollRequest> reqs(kInFlight);
    for (int i = 0; i < kInFlight; ++i) {
      const std::uint64_t nbytes = 512 + 977 * static_cast<std::uint64_t>(i);
      const int root = i % P;
      bufs[i].resize(nbytes);
      fill_pattern(bufs[i], ~static_cast<std::uint64_t>(i));
      if (comm.rank() == root) fill_pattern(bufs[i], 42 + i);
      reqs[i] = core::ibcast(comm, bufs[i], root);
    }
    EXPECT_GE(comm.progress_engine().in_flight(), 1u);
    for (int i = kInFlight - 1; i >= 0; --i) reqs[i].wait();
    for (int i = 0; i < kInFlight; ++i) {
      ASSERT_EQ(first_pattern_mismatch(bufs[i], 42 + i), bufs[i].size())
          << "op " << i << " rank " << comm.rank();
    }
  });
}

TEST(Ibcast, WaitAllCompletesEverything) {
  const int P = 6;
  const int kOps = 20;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    std::vector<std::vector<std::byte>> bufs(kOps);
    std::vector<CollRequest> reqs(kOps);
    for (int i = 0; i < kOps; ++i) {
      bufs[i].resize(4096 + i);
      if (comm.rank() == i % P) fill_pattern(bufs[i], 7 * i + 1);
      reqs[i] = core::ibcast(comm, bufs[i], i % P);
    }
    mpisim::wait_all_coll(reqs);
    for (int i = 0; i < kOps; ++i) {
      ASSERT_EQ(first_pattern_mismatch(bufs[i], 7 * i + 1), bufs[i].size());
    }
  });
}

TEST(Ibcast, TestEventuallyCompletesWithoutWait) {
  const int P = 4;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    std::vector<std::byte> buf(20000);
    if (comm.rank() == 1) fill_pattern(buf, 5);
    CollRequest req = core::ibcast(comm, buf, 1);
    while (!req.test()) {
    }
    EXPECT_EQ(first_pattern_mismatch(buf, 5), buf.size());
    EXPECT_TRUE(req.test());  // completed requests stay complete
  });
}

TEST(Ibcast, EmptyRequestIsComplete) {
  CollRequest req;
  EXPECT_TRUE(req.test());
  req.wait();  // no-op
}

// ------------------------------------------------------------- iallgather

void seed_allgather_input(int rank, int root, int P, bool tuned,
                          std::uint64_t seed, std::span<std::byte> buf) {
  fill_pattern(buf, ~seed);  // garbage
  const ChunkLayout layout(buf.size(), P);
  const int rel = rel_rank(rank, root, P);
  if (tuned) {
    // The tuned ring runs over scatter_binomial output: the rank owns its
    // whole binomial-subtree block.
    const std::uint64_t off = layout.disp(rel);
    fill_pattern(buf.subspan(off, coll::scatter_block_bytes(rel, layout)),
                 seed, off);
  } else {
    fill_pattern(layout.chunk(buf, rel), seed, layout.disp(rel));
  }
}

void check_iallgather_all_roots(int P, std::uint64_t nbytes, bool tuned) {
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    for (int root = 0; root < P; ++root) {
      const std::uint64_t seed = 9000 + static_cast<std::uint64_t>(root);
      std::vector<std::byte> buf(nbytes);
      seed_allgather_input(comm.rank(), root, P, tuned, seed, buf);
      CollRequest req = core::iallgather(comm, buf, root, tuned);
      req.wait();
      ASSERT_EQ(first_pattern_mismatch(buf, seed), buf.size())
          << "P=" << P << " root=" << root << " tuned=" << tuned
          << " rank=" << comm.rank();
    }
  });
}

TEST(Iallgather, TunedMatchesBlockingAcrossRoots) {
  for (const int P : {2, 3, 8, 10, 13, 32, 64}) {
    check_iallgather_all_roots(P, 8 * 1024, /*tuned=*/true);
  }
}

TEST(Iallgather, NativeMatchesBlockingAcrossRoots) {
  for (const int P : {2, 5, 8, 10, 24, 64}) {
    check_iallgather_all_roots(P, 6001, /*tuned=*/false);
  }
}

TEST(Iallgather, TunedMovesFewerBytesThanNative) {
  // The paper's saving survives the nonblocking path: same worlds, same
  // shape, strictly fewer messages for the tuned ring.
  const int P = 10;
  const std::uint64_t nbytes = 50000;
  std::uint64_t msgs[2] = {0, 0};
  for (const bool tuned : {false, true}) {
    mpisim::World world(P);
    world.run([&](mpisim::ThreadComm& comm) {
      std::vector<std::byte> buf(nbytes);
      seed_allgather_input(comm.rank(), 0, P, tuned, 3, buf);
      core::iallgather(comm, buf, 0, tuned).wait();
    });
    msgs[tuned ? 1 : 0] = world.total_msgs();
  }
  EXPECT_EQ(msgs[0], 90u);  // P(P-1)
  EXPECT_EQ(msgs[1], 75u);  // P(P-1) - sum(step_i - 1)
}

// -------------------------------------------------- split communicators

TEST(Ibcast, OverlappingSplitCommsInterleavedTestWait) {
  // 12 world ranks split into 3 groups of 4 (by color) while the WORLD
  // also runs its own broadcasts: two layers of concurrent collectives on
  // overlapping communicators, completed in interleaved test/wait orders.
  const int P = 12;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    auto sub = coll::comm_split(comm, comm.rank() % 3, comm.rank(),
                                /*base_context=*/1);
    ASSERT_TRUE(sub.has_value());
    ASSERT_EQ(sub->size(), 4);

    const std::uint64_t group_seed = 100 + static_cast<std::uint64_t>(
                                               comm.rank() % 3);
    std::vector<std::byte> world_buf(18000);
    std::vector<std::byte> sub_buf(9000);
    if (comm.rank() == 2) fill_pattern(world_buf, 55);
    if (sub->rank() == 1) fill_pattern(sub_buf, group_seed);

    CollRequest world_req = core::ibcast(comm, world_buf, 2);
    CollRequest sub_req = core::ibcast(*sub, sub_buf, 1);

    if (comm.rank() % 2 == 0) {
      // Even ranks: poll the sub op while waiting the world op.
      while (!sub_req.test()) {
        if (world_req.test()) break;
      }
      world_req.wait();
      sub_req.wait();
    } else {
      sub_req.wait();
      world_req.wait();
    }
    EXPECT_EQ(first_pattern_mismatch(world_buf, 55), world_buf.size());
    EXPECT_EQ(first_pattern_mismatch(sub_buf, group_seed), sub_buf.size());
  });
}

TEST(Iallgather, OnSplitComm) {
  const int P = 12;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    auto sub = coll::comm_split(comm, comm.rank() / 6, comm.rank(),
                                /*base_context=*/1);
    ASSERT_TRUE(sub.has_value());
    const int sp = sub->size();
    std::vector<std::byte> buf(7200);
    const std::uint64_t seed = 300 + static_cast<std::uint64_t>(comm.rank() / 6);
    seed_allgather_input(sub->rank(), 0, sp, true, seed, buf);
    core::iallgather(*sub, buf, 0, true).wait();
    EXPECT_EQ(first_pattern_mismatch(buf, seed), buf.size());
  });
}

TEST(Ibcast, ManyCollectivesPerSubCommWrapContexts) {
  // More in-flight sequence slots than a naive tag map would allow: 100
  // back-to-back broadcasts per group, batches of 10 in flight.
  const int P = 8;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    auto sub = coll::comm_split(comm, comm.rank() % 2, comm.rank(),
                                /*base_context=*/1);
    ASSERT_TRUE(sub.has_value());
    for (int batch = 0; batch < 10; ++batch) {
      std::vector<std::vector<std::byte>> bufs(10);
      std::vector<CollRequest> reqs(10);
      for (int i = 0; i < 10; ++i) {
        const std::uint64_t seed =
            static_cast<std::uint64_t>(batch * 10 + i) * 2 +
            static_cast<std::uint64_t>(comm.rank() % 2);
        bufs[i].resize(700 + 13 * static_cast<std::uint64_t>(i));
        if (sub->rank() == i % sub->size()) fill_pattern(bufs[i], seed);
        reqs[i] = core::ibcast(*sub, bufs[i], i % sub->size());
      }
      mpisim::wait_all_coll(reqs);
      for (int i = 0; i < 10; ++i) {
        const std::uint64_t seed =
            static_cast<std::uint64_t>(batch * 10 + i) * 2 +
            static_cast<std::uint64_t>(comm.rank() % 2);
        ASSERT_EQ(first_pattern_mismatch(bufs[i], seed), bufs[i].size());
      }
    }
  });
}

// --------------------------------------------------------- fault injection

TEST(Ibcast, CompletesUnderDelaysAndReordering) {
  mpisim::WorldConfig cfg;
  cfg.faults.enabled = true;
  cfg.faults.seed = 0xfeedULL;
  cfg.faults.delay_prob = 0.3;
  cfg.faults.max_delay_us = 200;
  cfg.faults.reorder_prob = 0.3;
  cfg.faults.force_rendezvous_prob = 0.2;
  cfg.faults.force_eager_prob = 0.2;
  const int P = 9;
  mpisim::World world(P, cfg);
  world.run([&](mpisim::ThreadComm& comm) {
    std::vector<std::vector<std::byte>> bufs(8);
    std::vector<CollRequest> reqs(8);
    for (int i = 0; i < 8; ++i) {
      bufs[i].resize(15000 + 501 * static_cast<std::uint64_t>(i));
      if (comm.rank() == i % P) fill_pattern(bufs[i], 60 + i);
      reqs[i] = core::ibcast(comm, bufs[i], i % P);
    }
    mpisim::wait_all_coll(reqs);
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(first_pattern_mismatch(bufs[i], 60 + i), bufs[i].size())
          << "op " << i << " rank " << comm.rank();
    }
  });
}

TEST(Iallgather, CompletesUnderFaultsOnSplitComms) {
  mpisim::WorldConfig cfg;
  cfg.faults.enabled = true;
  cfg.faults.seed = 0xabcdULL;
  cfg.faults.delay_prob = 0.25;
  cfg.faults.max_delay_us = 150;
  cfg.faults.reorder_prob = 0.25;
  const int P = 8;
  mpisim::World world(P, cfg);
  world.run([&](mpisim::ThreadComm& comm) {
    auto sub = coll::comm_split(comm, comm.rank() % 2, comm.rank(),
                                /*base_context=*/1);
    ASSERT_TRUE(sub.has_value());
    std::vector<std::byte> buf(4096);
    const std::uint64_t seed = 500 + static_cast<std::uint64_t>(comm.rank() % 2);
    seed_allgather_input(sub->rank(), 0, sub->size(), true, seed, buf);
    core::iallgather(*sub, buf, 0, true).wait();
    EXPECT_EQ(first_pattern_mismatch(buf, seed), buf.size());
  });
}

// ------------------------------------------------ cache on the hot path

TEST(Ibcast, SteadyStateHitsTheScheduleCache) {
  coll::process_schedule_cache().clear();
  const int P = 8;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    for (int iter = 0; iter < 25; ++iter) {
      std::vector<std::byte> buf(20000);
      if (comm.rank() == iter % 4) fill_pattern(buf, 80 + iter);
      core::ibcast(comm, buf, iter % 4).wait();
      ASSERT_EQ(first_pattern_mismatch(buf, 80 + iter), buf.size());
    }
  });
  const auto s = coll::process_schedule_cache().stats();
  // ONE key: the four roots canonicalize to the same root-0 plan, so only
  // the very first lookup across 8 ranks x 25 iters compiles anything.
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(P) * 25 - 1);
  EXPECT_GE(s.hit_rate(), 0.9);
}

TEST(PersistentBcastOnPlan, SharesTheProcessCache) {
  coll::process_schedule_cache().clear();
  const int P = 10;  // >= 8 ranks, medium non-pof2 size -> tuned ring
  const std::uint64_t nbytes = 40000;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    core::PersistentBcast plan(comm, nbytes, 0);
    std::vector<std::byte> buf(nbytes);
    if (comm.rank() == 0) fill_pattern(buf, 9);
    plan.execute(buf);
    EXPECT_EQ(first_pattern_mismatch(buf, 9), buf.size());
  });
  const auto s = coll::process_schedule_cache().stats();
  EXPECT_EQ(s.misses, 1u);      // one compilation...
  EXPECT_GE(s.hits, 9u);        // ...shared by the other nine ranks
  // The nonblocking path reuses the exact same plan object.
  auto cached = core::bcast_plan(P, nbytes, 0);
  EXPECT_EQ(coll::process_schedule_cache().stats().misses, 1u);
  EXPECT_EQ(cached->name, std::string("scatter+ring-allgather(tuned)"));
  // Root canonicalization: EVERY root of the shape resolves to that same
  // plan object — no per-root compilations.
  for (int root = 1; root < P; ++root) {
    EXPECT_EQ(core::bcast_plan(P, nbytes, root).get(), cached.get());
  }
  EXPECT_EQ(coll::process_schedule_cache().stats().misses, 1u);
}

TEST(Ibcast, SplitCommsShareOneCanonicalPlan) {
  // Cross-communicator sharing: three disjoint 4-rank groups broadcast the
  // same-shaped buffer from DIFFERENT roots. The root-canonical cache key
  // (P, 0, nbytes, algo) makes all of them — across groups, roots and
  // iterations — reuse a single compiled plan.
  coll::process_schedule_cache().clear();
  const int P = 12;
  const std::uint64_t nbytes = 9000;
  mpisim::World world(P);
  world.run([&](mpisim::ThreadComm& comm) {
    auto sub = coll::comm_split(comm, comm.rank() % 3, comm.rank(),
                                /*base_context=*/1);
    ASSERT_TRUE(sub.has_value());
    const int group = comm.rank() % 3;
    const int root = group;  // group g broadcasts from sub rank g
    const std::uint64_t seed = 700 + static_cast<std::uint64_t>(group);
    std::vector<std::byte> buf(nbytes);
    fill_pattern(buf, ~seed);
    if (sub->rank() == root) fill_pattern(buf, seed);
    core::ibcast(*sub, buf, root).wait();
    EXPECT_EQ(first_pattern_mismatch(buf, seed), buf.size());
  });
  const auto s = coll::process_schedule_cache().stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 11u);
}

}  // namespace
}  // namespace bsb
