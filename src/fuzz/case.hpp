// Fuzz-case model: one randomly sampled configuration of a broadcast or
// allgather run — variant, process count, message size, root, runtime
// thresholds and an optional fault-injection plan — derived purely from
// (master seed, case index) so every case replays bit-identically from its
// one-line reproducer (`bsb-fuzz --seed=S --case=K`).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "coll/reduce_ops.hpp"
#include "comm/comm.hpp"
#include "mpisim/world.hpp"

namespace bsb::fuzz {

/// Every broadcast/allgather/reduction implementation in src/coll and
/// src/core. Each has one descriptor row in registry/registry.cpp, which
/// holds everything else known about it.
enum class Variant : std::uint8_t {
  BcastBinomial,
  BcastScatterRd,          // requires power-of-two ranks
  BcastScatterRingNative,
  BcastScatterRingTuned,   // the paper's MPI_Bcast_opt
  BcastRingPipelined,
  BcastSmp,
  BcastAuto,               // core::bcast dispatcher with sampled thresholds
  BcastPersistent,         // core::PersistentBcast plan + execute
  AllgatherRingNative,
  AllgatherRingTuned,
  AllgatherRecursiveDoubling,  // requires power-of-two ranks
  AllgatherBruck,
  AllgatherNeighborExchange,   // requires an even rank count
  // Ownership-aware reduction family (the paper's trick beyond bcast).
  ReduceScatterRing,           // plain ring: each rank keeps its own chunk
  ReduceScatterBlocks,         // ring + ancestor delivery: binomial blocks
  AllreduceRsAgNative,         // blocks reduce_scatter + ENCLOSED allgather
  AllreduceRsAgTuned,          // blocks reduce_scatter + tuned allgather
  AllreduceRecursiveDoubling,  // requires power-of-two ranks; rootless
  // Skewed-block (allgatherv) generalization.
  AllgathervRingNative,
  AllgathervRingTuned,
  // Locality-aware comparison point.
  AllgatherBruckHier,          // rootless; uses smp_cores_per_node
  // Nonblocking front-end: kIbcastDepth core::ibcast operations (staggered
  // roots) in flight at once, driven by the per-rank progress engine.
  IbcastConcurrent,
  // Hierarchical broadcast over an explicit ragged node shape: leaders run
  // the scatter-ring over their own sub-communicator, then single-copy
  // fan-out within each node (src/coll/hier).
  BcastHier,
};

inline constexpr int kNumVariants = 23;

/// Broadcasts IbcastConcurrent keeps in flight per rank (primary buffer
/// plus depth-1 companions with staggered roots).
inline constexpr int kIbcastDepth = 3;

const char* to_string(Variant v) noexcept;
std::optional<Variant> variant_from_string(const std::string& name);

/// All variants, in enum order (for round-robin assignment and CLI help).
std::span<const Variant> all_variants() noexcept;

/// Smallest adjustment of `nranks` (downwards) that satisfies the
/// variant's structural requirement (power-of-two / even / >= 2).
int fit_ranks(Variant v, int nranks) noexcept;

/// Shape classification, read from the variant's registry row.
/// Reduction family: needs (op, dtype) and nbytes % (P * elem) == 0.
bool is_reduce_family(Variant v) noexcept;
/// Skewed-block family: needs skew_seed; ANY nbytes is legal.
bool is_allgatherv(Variant v) noexcept;
/// Uniform-block allgathers: need nbytes % P == 0.
bool is_block_allgather(Variant v) noexcept;
/// Variants with no root parameter (root pinned to 0).
bool is_rootless(Variant v) noexcept;

/// One rank's program for a fuzz case; identical code drives the symbolic
/// recording, the threaded execution, and the static verifier.
using RankBody = std::function<void(Comm&, std::span<std::byte>)>;

/// Deliberate schedule corruption for the harness self-test: proves the
/// detectors catch exactly the class of bug the pairing invariant guards
/// against. Each variant's registry row names the one sabotage its program
/// honours.
enum class Sabotage : std::uint8_t {
  None,
  /// plan.step += 1 inside the tuned ring (off-by-one in the special
  /// phase). Only perturbs the tuned-ring variants.
  RingPlanStepOffByOne,
  /// reduce_scatter_blocks_ring ships every finished chunk TWICE to the
  /// nearest ancestor: values stay correct, but the transfer counts break
  /// and bsb-verify's reduce-flow pass must produce a redundancy witness.
  /// Only perturbs Variant::ReduceScatterBlocks.
  ReduceScatterDoubleFinal,
  /// bcast_hier leaders deliver the buffer TWICE to every non-leader of
  /// their node: values stay correct, but the intra-node transfer count
  /// doubles and bsb-verify's redundancy pass must produce a witness.
  /// Only perturbs Variant::BcastHier.
  HierDoubleFanout,
};

struct FuzzCase;

/// Re-establish a case's structural invariants after a field change: clamp
/// nranks to the variant's requirement, wrap/pin the root, and snap nbytes
/// to the block or reduction grain. Shared by the shrinker, the verifier
/// sweep and the CLI replay paths.
FuzzCase normalize_case(FuzzCase c);

/// One fully specified run. `seed`/`index` identify the generator draw the
/// case came from; after shrinking they are kept so the report can still
/// name the originating draw while the fields describe the shrunk config.
struct FuzzCase {
  std::uint64_t seed = 0;
  std::uint64_t index = 0;
  Variant variant = Variant::BcastScatterRingTuned;
  int nranks = 2;
  int root = 0;
  std::uint64_t nbytes = 0;         // collective buffer bytes (total)
  std::uint64_t segment_bytes = 0;  // BcastRingPipelined only
  int smp_cores_per_node = 0;       // BcastSmp only
  // Sampled selector thresholds (BcastAuto / BcastPersistent).
  std::uint64_t smsg_limit = 12288;
  std::uint64_t mmsg_limit = 524288;
  bool use_tuned_ring = true;
  // Runtime knobs.
  std::size_t eager_threshold = 65536;
  double watchdog_seconds = 20.0;
  mpisim::FaultConfig faults;  // enabled => hostile interleavings
  // Reduction family only: sampled operator and element type.
  coll::RedOp red_op = coll::RedOp::Sum;
  coll::RedDtype red_dtype = coll::RedDtype::F64;
  // Allgatherv family only: seed of the skewed block-size vector
  // (comm/vchunks.hpp's skewed_counts shared with the verifier and tests).
  std::uint64_t skew_seed = 0;
  // BcastHier only: per-node rank counts (sum == nranks, every entry >= 1).
  // Empty means "derive a uniform shape from smp_cores_per_node".
  std::vector<int> node_sizes;
};

/// Pattern seed for the case's byte oracle; initial garbage uses its
/// complement so untouched bytes are always detected.
inline std::uint64_t oracle_seed(const FuzzCase& c) noexcept {
  return c.seed * 0x9e3779b97f4a7c15ULL + c.index * 0x100000001b3ULL + 1;
}

/// Bounds and feature toggles for the generator.
struct GeneratorOptions {
  int min_ranks = 2;
  int max_ranks = 64;
  std::uint64_t max_bytes = 640 * 1024;
  bool faults = true;           // sample fault plans for ~40% of cases
  double watchdog_seconds = 20.0;
};

/// Deterministically sample case `index` of run `seed`.
FuzzCase sample_case(std::uint64_t seed, std::uint64_t index,
                     const GeneratorOptions& opt);

/// Human-readable one-line summary of the configuration.
std::string describe(const FuzzCase& c);

/// The exact replay command for the generator draw that produced `c`.
std::string reproducer(const FuzzCase& c);

/// Replay command with every field spelled out (survives shrinking, which
/// leaves (seed, index) pointing at the original draw).
std::string explicit_reproducer(const FuzzCase& c);

}  // namespace bsb::fuzz
