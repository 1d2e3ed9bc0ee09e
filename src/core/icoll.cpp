#include "core/icoll.hpp"

#include <utility>
#include <vector>

#include "bsbutil/error.hpp"
#include "coll/allgather_ring_native.hpp"
#include "coll/schedule_cache.hpp"
#include "comm/chunks.hpp"
#include "core/allgather_ring_tuned.hpp"

namespace bsb::core {

namespace {

/// The ThreadComm under a SubComm (nonblocking collectives drive the
/// parent's mailboxes directly, replicating the SubComm's translation).
mpisim::ThreadComm& thread_parent(SubComm& comm) {
  auto* tc = dynamic_cast<mpisim::ThreadComm*>(&comm.parent());
  BSB_REQUIRE(tc != nullptr,
              "nonblocking collectives need a mpisim::ThreadComm parent");
  return *tc;
}

/// Member map executing a root-canonical plan at `root`: plan rank i
/// (relative rank i) runs as member abs_rank(i, root, P). `members` is the
/// communicator's own world mapping ({} = the world itself). Empty result
/// = identity, the root-0 world fast path.
std::vector<int> rotated_members(int nranks, int root,
                                 const std::vector<int>& members) {
  if (root == 0 && members.empty()) return {};
  std::vector<int> out(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    const int a = abs_rank(i, root, nranks);
    out[static_cast<std::size_t>(i)] =
        members.empty() ? a : members[static_cast<std::size_t>(a)];
  }
  return out;
}

}  // namespace

std::shared_ptr<const coll::Plan> bcast_plan(int nranks, std::uint64_t nbytes,
                                             int root, const BcastConfig& cfg) {
  BSB_REQUIRE(root >= 0 && root < nranks, "bcast_plan: root out of range");
  const BcastAlgorithm algo = choose_bcast_algorithm(nbytes, nranks, cfg);
  // Root-canonical key: every root (and every same-shaped communicator)
  // shares ONE compilation, because all the flat bcast algorithms are
  // rotation-equivariant — rank r's schedule at root `root` is relative
  // rank rel_rank(r, root, P)'s schedule at root 0 with peers rotated.
  // Executors apply the rotation (execute_plan_rank's root parameter, the
  // progress engine's member map).
  const coll::PlanKey key{nranks, nbytes, static_cast<int>(algo)};
  return coll::process_schedule_cache().get_or_build(key, [&] {
    return coll::compile_plan(
        nranks, nbytes, to_string(algo),
        [algo](Comm& c, std::span<std::byte> buf) {
          run_bcast_algorithm(algo, c, buf, /*root=*/0);
        });
  });
}

std::shared_ptr<const coll::Plan> allgather_plan(int nranks,
                                                 std::uint64_t nbytes, int root,
                                                 bool tuned) {
  BSB_REQUIRE(root >= 0 && root < nranks, "allgather_plan: root out of range");
  const int id = tuned ? kPlanAllgatherRingTuned : kPlanAllgatherRingNative;
  // Root-canonical, exactly like bcast_plan: chunk ownership and offsets
  // are already expressed in relative ranks, so the root-0 plan rotated is
  // the root-r schedule.
  const coll::PlanKey key{nranks, nbytes, id};
  return coll::process_schedule_cache().get_or_build(key, [&] {
    return coll::compile_plan(
        nranks, nbytes, tuned ? "allgather_ring_tuned" : "allgather_ring_native",
        [tuned](Comm& c, std::span<std::byte> buf) {
          const ChunkLayout layout(buf.size(), c.size());
          if (tuned) {
            allgather_ring_tuned(c, buf, /*root=*/0, layout);
          } else {
            coll::allgather_ring_native(c, buf, /*root=*/0, layout);
          }
        });
  });
}

mpisim::CollRequest ibcast(mpisim::ThreadComm& comm,
                           std::span<std::byte> buffer, int root,
                           const BcastConfig& cfg) {
  BSB_REQUIRE(root >= 0 && root < comm.size(), "ibcast: root out of range");
  auto plan = bcast_plan(comm.size(), buffer.size(), root, cfg);
  return comm.progress_engine().start(
      std::move(plan), buffer, rel_rank(comm.rank(), root, comm.size()),
      rotated_members(comm.size(), root, {}), /*context=*/0);
}

mpisim::CollRequest ibcast(SubComm& comm, std::span<std::byte> buffer,
                           int root, const BcastConfig& cfg) {
  BSB_REQUIRE(root >= 0 && root < comm.size(), "ibcast: root out of range");
  mpisim::ThreadComm& parent = thread_parent(comm);
  auto plan = bcast_plan(comm.size(), buffer.size(), root, cfg);
  return parent.progress_engine().start(
      std::move(plan), buffer, rel_rank(comm.rank(), root, comm.size()),
      rotated_members(comm.size(), root, comm.members()), comm.context());
}

mpisim::CollRequest iallgather(mpisim::ThreadComm& comm,
                               std::span<std::byte> buffer, int root,
                               bool tuned) {
  BSB_REQUIRE(root >= 0 && root < comm.size(), "iallgather: root out of range");
  auto plan = allgather_plan(comm.size(), buffer.size(), root, tuned);
  return comm.progress_engine().start(
      std::move(plan), buffer, rel_rank(comm.rank(), root, comm.size()),
      rotated_members(comm.size(), root, {}), /*context=*/0);
}

mpisim::CollRequest iallgather(SubComm& comm, std::span<std::byte> buffer,
                               int root, bool tuned) {
  BSB_REQUIRE(root >= 0 && root < comm.size(), "iallgather: root out of range");
  mpisim::ThreadComm& parent = thread_parent(comm);
  auto plan = allgather_plan(comm.size(), buffer.size(), root, tuned);
  return parent.progress_engine().start(
      std::move(plan), buffer, rel_rank(comm.rank(), root, comm.size()),
      rotated_members(comm.size(), root, comm.members()), comm.context());
}

}  // namespace bsb::core
