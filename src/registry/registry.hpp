// The collective registry: one descriptor per fuzz::Variant, in enum order,
// and the only place that knows what a variant is — its name, the process
// counts and shapes it accepts, its program, the bytes each rank owns before
// it runs, its closed-form transfer counts, the byte oracle its threaded run
// is judged by, and which static proofs apply to it. The fuzz generator,
// the differential runner and the static verifier all read this table, so
// adding a collective means one enum entry plus one row (docs/FUZZING.md).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bsbutil/intervals.hpp"
#include "fuzz/case.hpp"
#include "trace/schedule.hpp"

namespace bsb::registry {

/// Closed-form expectation for one case's recorded schedule; a mismatch is
/// a conformance failure, never a tolerance.
struct TransferExpectation {
  /// Total send halves across all ranks; nullopt when the variant has no
  /// closed form (none today — every variant is covered).
  std::optional<std::uint64_t> total_sends;
  /// Payload bytes delivered to ranks that already held them. For the
  /// tuned paths this is 0 by construction; for the enclosed (native) ring
  /// and the recursive-doubling allgather running over binomial-scatter
  /// output it is exactly sum_r(block_bytes(r) - own_chunk_bytes(r)).
  /// Unset where redundancy is not statically checkable.
  std::optional<std::uint64_t> redundant_bytes;
  /// Nonempty messages whose payload was entirely already held.
  std::optional<std::uint64_t> redundant_msgs;
  /// Exact (sends, recvs) per absolute rank; empty means "not constrained
  /// per rank".
  std::vector<std::pair<std::uint64_t, std::uint64_t>> per_rank_counts;
};

/// Structural requirement on the process count.
enum class RankRule : std::uint8_t { Any, Pow2, Even };

/// What normalize_case snaps nbytes (and the node shape) to.
enum class Shape : std::uint8_t {
  Free,            // any nbytes
  BlockAllgather,  // equal blocks: P | nbytes
  ReductionGrain,  // whole elements per uniform chunk: P * elem | nbytes
  Skewed,          // any nbytes over the case's skewed VarLayout
  Hier,            // any nbytes; node_sizes refit to sum to P
};

/// Which bytes a rank holds, as a chunk range of its relative rank over the
/// case's layout (the skewed VarLayout for Shape::Skewed, the uniform
/// ChunkLayout otherwise). Rootless variants index chunks by absolute rank.
enum class Holding : std::uint8_t {
  Root,          // the root holds everything, every other rank nothing
  OwnChunk,      // chunk rel
  ScatterBlock,  // chunks [rel, rel + scatter_subtree_span): post-scatter
  All,           // every rank holds everything
};

/// How the threaded run's final buffers are judged.
enum class Oracle : std::uint8_t {
  Pattern,   // every rank ends with the root's pattern bytes
  RingFold,  // the `reduced` chunks equal the ring-order fold
  TreeFold,  // the whole buffer equals the recursive-doubling fold
};

/// Case fields the program reads beyond (P, root, nbytes); describe() and
/// the reproducers print exactly these. Node shapes (Shape::Hier), the
/// reduction op/dtype (the fold oracles) and the skew seed (Shape::Skewed)
/// follow from the other fields.
enum Param : std::uint8_t {
  kNoParams = 0,
  kSegment = 1,   // segment_bytes
  kCores = 2,     // smp_cores_per_node
  kSelector = 4,  // smsg_limit / mmsg_limit / use_tuned_ring
};

/// One row of the table. Rows state only what differs from these defaults.
struct Collective {
  fuzz::Variant variant;  // == its index in the table
  const char* name;       // CLI and report name
  RankRule ranks = RankRule::Any;
  bool rootless = false;  // no root parameter: root pinned to 0
  Shape shape = Shape::Free;
  std::uint8_t params = kNoParams;  // Param bits
  /// One rank's program (fuzz::make_rank_body binds it to the case).
  void (*program)(const fuzz::FuzzCase&, fuzz::Sabotage, Comm&,
                  std::span<std::byte>) = nullptr;
  /// The one self-test sabotage the program honours (None: it ignores all).
  fuzz::Sabotage sabotage = fuzz::Sabotage::None;
  /// Initial-ownership contract: the bytes each rank contributes.
  Holding initial = Holding::Root;
  TransferExpectation (*expect)(const fuzz::FuzzCase&) = nullptr;
  Oracle oracle = Oracle::Pattern;
  /// Chunks each rank must end with fully reduced (RingFold only).
  Holding reduced = Holding::All;
  /// Dataflow coverage + redundancy apply: every recorded offset lies in
  /// the collective buffer and every payload is a copy of source bytes.
  bool dataflow = true;
  /// Runs through the root-canonical plan cache, so it owes a rotation
  /// proof (verify/equiv.hpp).
  bool rotation = false;
  /// Per-rank closed-form bound on the eager high-water mark under a
  /// threshold (verify/lint.hpp); nullptr when there is none.
  std::vector<std::uint64_t> (*eager_bound)(const fuzz::FuzzCase&,
                                            std::uint64_t threshold) = nullptr;
};

/// The descriptor of `v`.
const Collective& collective(fuzz::Variant v) noexcept;

/// The chunk range [first, first + n) relative rank `rel` of `P` holds.
std::pair<int, int> held_chunks(Holding h, int rel, int P);

/// The byte interval each absolute rank holds under `h` for case `c`.
std::vector<Interval> held_bytes(Holding h, const fuzz::FuzzCase& c);

/// "<what>: schedule has <got>, closed form says <want>".
std::string count_mismatch(const std::string& what, std::uint64_t got,
                           std::uint64_t want);

/// Compare the schedule's total and per-rank transfer counts against
/// `expect`, appending one "transfers: ..." entry per mismatch; the
/// per-rank scan stops once `failures` holds 8 entries.
void check_transfers(const trace::Schedule& sched,
                     const TransferExpectation& expect,
                     std::vector<std::string>* failures);

}  // namespace bsb::registry
