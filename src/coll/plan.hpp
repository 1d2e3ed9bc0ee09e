// coll::Plan — a collective "compiled" to per-rank point-to-point op
// lists, the shared representation behind core::PersistentBcast, the
// nonblocking collectives (core::ibcast / core::iallgather) and the
// process-wide schedule cache. A Plan holds the op lists for ALL ranks of
// the communicator, so one cached Plan serves every rank thread of a World
// and replanning cost is paid once per (P, nbytes, algorithm).
//
// A Plan IS the trace::Schedule that trace::record_schedule captures from
// the blocking algorithm run at root 0: the algorithms are data-oblivious,
// so the recording is the schedule every execution will follow. Plans are
// root-canonical: executors rotate the root-0 schedule to the caller's root
// by relabelling peers (trace::rotate_schedule spells the mapping out).
// Compilation rejects algorithms that use barriers or scratch memory
// outside the collective buffer — those cannot be replayed offset-relative.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "comm/comm.hpp"
#include "trace/record.hpp"
#include "trace/schedule.hpp"

namespace bsb::coll {

/// A collective compiled for every rank of a P-rank communicator.
/// Immutable after compile_plan; shared across threads via
/// shared_ptr<const Plan> (the schedule cache hands those out).
struct Plan : trace::Schedule {
  std::string name;  // algorithm, for diagnostics
  int max_tag = 0;   // largest tag of any op half (progress-engine striding)

  /// trace::fingerprint of the schedule. The rotation-equivalence prover
  /// (verify/equiv.hpp) reports it next to divergence witnesses so failures
  /// name the exact plan proven against.
  std::uint64_t fingerprint() const noexcept { return trace::fingerprint(*this); }
};

/// Compile `program` (a per-rank blocking algorithm body, written for root
/// 0) into a Plan by recording each rank's op sequence. Throws if the
/// program uses barriers, buffers outside the collective's data buffer, or
/// a sendrecv whose two halves carry different tags.
Plan compile_plan(int nranks, std::uint64_t nbytes, std::string name,
                  const trace::RankProgram& program);

/// Blocking replay of one rank's op list over `buffer` (must be
/// plan.nbytes long). PersistentBcast::execute and tests use this; the
/// nonblocking path drives the same ops through mpisim's progress engine.
///
/// `root` rotates the root-canonical plan: absolute rank `rank` runs the
/// op list of plan rank rel_rank(rank, root, P) with every peer mapped back
/// through abs_rank. With root 0 this is a plain replay.
void execute_plan_rank(Comm& comm, const Plan& plan, int rank,
                       std::span<std::byte> buffer, int root = 0);

/// Human-readable listing of one rank's ops.
std::string describe_plan_rank(const Plan& plan, int rank);

}  // namespace bsb::coll
