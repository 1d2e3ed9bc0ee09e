// Per-rank progress engine for nonblocking collectives: advances precompiled
// coll::Plan op lists via isend/irecv without blocking between steps, so
// many collectives can be in flight per rank at once (the concurrent-serving
// workload from ROADMAP item 3). core::ibcast / core::iallgather start ops
// here and hand back CollRequests with test/wait/wait_all semantics matching
// the point-to-point Request API.
//
// Concurrency and tag isolation:
//  * Each rank owns one engine (stored in its World slot) and only that
//    rank's thread touches it — the engine itself needs no locking; the
//    underlying mailboxes provide the cross-thread machinery.
//  * Concurrent collectives on the SAME communicator are isolated by a
//    per-communicator operation sequence number: step tags (all below
//    coll::tags::kCtxStride) are remapped to `tag + kCtxStride * ctx` with
//    ctx in [1, kMaxCtx], so up to kMaxCtx operations can be in flight per
//    communicator before tags wrap, and
//    remapped tags never collide with blocking collectives' raw tags or
//    with SubComm::barrier. Ranks must start collectives on a given
//    communicator in the same order (the MPI nonblocking-collective rule);
//    the sequence numbers then agree without any coordination.
//  * Collectives on a SubComm are driven directly on the parent ThreadComm
//    by replicating SubComm's rank/tag translation (context * 2^16 + tag),
//    so subgroup traffic stays namespaced exactly like its blocking
//    counterpart.
//
// Lifetime rules (see docs/SIMULATOR.md): the collective's buffer must stay
// valid and untouched until its CollRequest completes; a rank must
// eventually complete every CollRequest it starts (waiting on ANY request
// progresses ALL of the rank's in-flight ops, so completion order is free);
// abandoning a CollRequest cancels its outstanding point-to-point
// operations — safe, but a program error as in MPI.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "coll/plan.hpp"
#include "coll/tags.hpp"
#include "mpisim/thread_comm.hpp"

namespace bsb::mpisim {

class ProgressEngine;

/// Handle for one in-flight nonblocking collective. Copyable (shared
/// state). A completion error (e.g. truncation) is thrown from the first
/// wait()/test() that observes it; afterwards the request counts as
/// complete.
class CollRequest {
 public:
  CollRequest() = default;  // empty request: already complete

  /// Block until this collective completes, driving ALL of the rank's
  /// in-flight collectives meanwhile. Throws the operation's error, or
  /// DeadlockError after the world's watchdog period without progress.
  void wait();

  /// One nonblocking progress pass; true iff this collective completed.
  bool test();

 private:
  friend class ProgressEngine;
  friend void wait_all_coll(std::span<CollRequest> requests);

  struct Op;
  std::shared_ptr<Op> op_;
  ProgressEngine* engine_ = nullptr;
};

/// Complete every request (MPI_Waitall for collectives). Throws the first
/// error; later requests are still driven to completion where possible.
void wait_all_coll(std::span<CollRequest> requests);

class ProgressEngine {
 public:
  /// Start executing `plan`'s op list for `local_rank` over `buffer`
  /// (valid until completion). `members` maps the plan's ranks to world
  /// ranks (empty = identity, i.e. the plan runs on the world itself);
  /// `context` is the SubComm tag namespace (0 = world). The first steps
  /// are issued immediately; the rest advance on progress/test/wait calls.
  CollRequest start(std::shared_ptr<const coll::Plan> plan,
                    std::span<std::byte> buffer, int local_rank,
                    std::vector<int> members, int context);

  /// One nonblocking pass over every in-flight op, issuing and retiring
  /// steps as their point-to-point requests complete.
  void progress();

  /// Ops started but not yet finished (diagnostics/tests).
  std::size_t in_flight() const noexcept { return active_.size(); }

  /// Tag stride between in-flight ops on one communicator; every plan tag
  /// must stay below it. Aliased from coll/tags.hpp, the single source of
  /// truth for the tag-space contract (static_asserts live there).
  static constexpr int kCtxStride = coll::tags::kCtxStride;
  /// Highest per-communicator context: keeps remapped tags below
  /// kMaxUserTag even inside a SubComm namespace.
  static constexpr int kMaxCtx = coll::tags::kMaxCtx;  // 2046

 private:
  friend class CollRequest;
  friend class World;

  explicit ProgressEngine(ThreadComm& comm) : comm_(&comm) {}

  /// Advance one op as far as possible without blocking.
  void progress_op(CollRequest::Op& op);
  /// Drive all ops until `op` completes (CollRequest::wait body).
  void wait_op(const std::shared_ptr<CollRequest::Op>& op);
  /// Throw op's deferred error (exactly once) if it has one.
  static void rethrow_op_error(CollRequest::Op& op);

  ThreadComm* comm_;
  std::vector<std::shared_ptr<CollRequest::Op>> active_;
  /// Total steps retired; wait_op's watchdog resets on any advancement.
  std::uint64_t steps_retired_ = 0;
  /// Next operation sequence number per communicator context.
  std::unordered_map<int, std::uint64_t> next_seq_;
};

}  // namespace bsb::mpisim
