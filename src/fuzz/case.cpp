#include "fuzz/case.hpp"

#include <algorithm>
#include <array>

#include "bsbutil/error.hpp"
#include "bsbutil/rng.hpp"
#include "registry/registry.hpp"

namespace bsb::fuzz {

namespace {

using registry::collective;
using registry::Shape;

constexpr std::array<Variant, kNumVariants> kAllVariants = [] {
  std::array<Variant, kNumVariants> all{};
  for (int i = 0; i < kNumVariants; ++i) all[i] = static_cast<Variant>(i);
  return all;
}();

std::uint64_t case_key(std::uint64_t seed, std::uint64_t index) noexcept {
  return (seed ^ 0x5DEECE66DULL) * 0x100000001b3ULL + index * 0x9e3779b97f4a7c15ULL;
}

/// "4,4,3" rendering of a node shape (the --nodes= flag syntax).
std::string join_sizes(const std::vector<int>& sizes) {
  std::string s;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(sizes[i]);
  }
  return s;
}

bool uses(const FuzzCase& c, registry::Param p) noexcept {
  return (collective(c.variant).params & p) != 0;
}

}  // namespace

bool is_block_allgather(Variant v) noexcept {
  return collective(v).shape == Shape::BlockAllgather;
}

bool is_reduce_family(Variant v) noexcept {
  return collective(v).shape == Shape::ReductionGrain;
}

bool is_allgatherv(Variant v) noexcept {
  return collective(v).shape == Shape::Skewed;
}

bool is_rootless(Variant v) noexcept { return collective(v).rootless; }

const char* to_string(Variant v) noexcept { return collective(v).name; }

std::optional<Variant> variant_from_string(const std::string& name) {
  for (const Variant v : kAllVariants) {
    if (name == to_string(v)) return v;
  }
  return std::nullopt;
}

std::span<const Variant> all_variants() noexcept { return kAllVariants; }

int fit_ranks(Variant v, int nranks) noexcept {
  int n = std::max(nranks, 2);
  switch (collective(v).ranks) {
    case registry::RankRule::Pow2:
      // Round down to a power of two.
      while ((n & (n - 1)) != 0) n &= n - 1;
      return std::max(n, 2);
    case registry::RankRule::Even:
      return n % 2 == 0 ? n : n - 1;
    case registry::RankRule::Any:
      return n;
  }
  return n;
}

FuzzCase normalize_case(FuzzCase c) {
  c.nranks = fit_ranks(c.variant, c.nranks);
  c.root = is_rootless(c.variant) ? 0 : c.root % c.nranks;
  if (collective(c.variant).shape == Shape::Hier) {
    // Refit the node shape so positive sizes sum to exactly nranks: keep
    // the sampled sizes as a prefix, clamp the straddler, extend with a
    // remainder node, drop the tail. An empty shape falls back to a
    // uniform split at smp_cores_per_node.
    std::vector<int> fit;
    int sum = 0;
    for (int s : c.node_sizes) {
      if (s < 1 || sum >= c.nranks) continue;
      s = std::min(s, c.nranks - sum);
      fit.push_back(s);
      sum += s;
    }
    if (fit.empty()) {
      const int cores = std::max(c.smp_cores_per_node, 1);
      for (int left = c.nranks; left > 0; left -= cores) {
        fit.push_back(std::min(left, cores));
      }
    } else if (sum < c.nranks) {
      fit.push_back(c.nranks - sum);
    }
    c.node_sizes = std::move(fit);
  } else {
    c.node_sizes.clear();
  }
  if (is_block_allgather(c.variant)) {
    std::uint64_t block = c.nbytes / static_cast<std::uint64_t>(c.nranks);
    if (block == 0) block = 1;
    c.nbytes = block * static_cast<std::uint64_t>(c.nranks);
  }
  if (is_reduce_family(c.variant)) {
    const std::uint64_t grain =
        static_cast<std::uint64_t>(c.nranks) * coll::elem_bytes(c.red_dtype);
    c.nbytes -= c.nbytes % grain;
    if (c.nbytes == 0) c.nbytes = grain;
  }
  return c;
}

FuzzCase sample_case(std::uint64_t seed, std::uint64_t index,
                     const GeneratorOptions& opt) {
  BSB_REQUIRE(opt.min_ranks >= 2 && opt.max_ranks >= opt.min_ranks,
              "sample_case: bad rank bounds");
  SplitMix64 rng(case_key(seed, index));
  FuzzCase c;
  c.seed = seed;
  c.index = index;
  c.watchdog_seconds = opt.watchdog_seconds;

  c.variant = static_cast<Variant>(rng.next_below(kNumVariants));

  // Process count: biased towards small groups (where the interesting
  // npof2/prime structure lives), with a tail up to max_ranks.
  const double pr = rng.next_double();
  int lo = opt.min_ranks, hi = opt.max_ranks;
  if (pr < 0.5) {
    hi = std::min(hi, 16);
  } else if (pr < 0.8) {
    lo = std::min(std::max(lo, 17), hi);
  } else {
    lo = std::min(std::max(lo, 33), hi);
  }
  c.nranks = lo + static_cast<int>(rng.next_below(
                      static_cast<std::uint64_t>(hi - lo + 1)));
  c.nranks = std::max(opt.min_ranks, std::min(fit_ranks(c.variant, c.nranks),
                                              opt.max_ranks));

  // Message size: bands straddling the 12 KiB and 512 KiB algorithm-switch
  // thresholds, plus tiny/medium fill-in; snapped to a sampled datatype
  // element size and (sometimes) a chunk alignment.
  const double sb = rng.next_double();
  std::uint64_t lo_b = 0, hi_b = 256;
  if (sb < 0.20) {
    lo_b = 0, hi_b = 256;
  } else if (sb < 0.40) {
    lo_b = 257, hi_b = 8 * 1024;
  } else if (sb < 0.70) {
    lo_b = 8 * 1024, hi_b = 16 * 1024;  // around 12288
  } else if (sb < 0.90) {
    lo_b = 16 * 1024, hi_b = 128 * 1024;
  } else {
    lo_b = 496 * 1024, hi_b = 544 * 1024;  // around 524288
  }
  hi_b = std::min(hi_b, opt.max_bytes);
  lo_b = std::min(lo_b, hi_b);
  c.nbytes = lo_b + rng.next_below(hi_b - lo_b + 1);

  static constexpr std::array<std::uint64_t, 5> kElemSizes = {1, 2, 4, 8, 16};
  const std::uint64_t elem = kElemSizes[rng.next_below(kElemSizes.size())];
  c.nbytes -= c.nbytes % elem;
  static constexpr std::array<std::uint64_t, 4> kAlignments = {1, 8, 64, 4096};
  const std::uint64_t align = kAlignments[rng.next_below(kAlignments.size())];
  if (rng.next_double() < 0.5 && c.nbytes >= align) c.nbytes -= c.nbytes % align;

  if (is_block_allgather(c.variant)) {
    // Standalone allgathers of equal blocks need nbytes divisible by P.
    std::uint64_t block = c.nbytes / static_cast<std::uint64_t>(c.nranks);
    if (block == 0) block = 1 + rng.next_below(64);
    c.nbytes = block * static_cast<std::uint64_t>(c.nranks);
  }

  if (is_reduce_family(c.variant)) {
    c.red_op = rng.next_below(2) == 0 ? coll::RedOp::Sum : coll::RedOp::Max;
    c.red_dtype =
        rng.next_below(2) == 0 ? coll::RedDtype::I32 : coll::RedDtype::F64;
    // Reductions need whole elements per uniform chunk.
    const std::uint64_t grain =
        static_cast<std::uint64_t>(c.nranks) * coll::elem_bytes(c.red_dtype);
    c.nbytes -= c.nbytes % grain;
    if (c.nbytes == 0) c.nbytes = grain * (1 + rng.next_below(32));
  }

  if (is_allgatherv(c.variant)) c.skew_seed = rng.next();

  c.root = is_rootless(c.variant) ? 0 : static_cast<int>(rng.next_below(c.nranks));

  static constexpr std::array<std::uint64_t, 4> kSegments = {0, 512, 4096, 16384};
  c.segment_bytes = kSegments[rng.next_below(kSegments.size())];

  static constexpr std::array<int, 4> kCores = {2, 3, 4, 8};
  c.smp_cores_per_node = kCores[rng.next_below(kCores.size())];

  // Selector thresholds for the dispatching variants.
  static constexpr std::array<std::uint64_t, 4> kSmsg = {0, 1024, 12288, 65536};
  static constexpr std::array<std::uint64_t, 3> kMmsg = {12288, 65536, 524288};
  c.smsg_limit = kSmsg[rng.next_below(kSmsg.size())];
  c.mmsg_limit = std::max(c.smsg_limit, kMmsg[rng.next_below(kMmsg.size())]);
  c.use_tuned_ring = rng.next_below(2) == 0;

  static constexpr std::array<std::size_t, 6> kEager = {
      0, 64, 1024, 12288, 65536, std::size_t{1} << 30};
  c.eager_threshold = kEager[rng.next_below(kEager.size())];

  if (collective(c.variant).shape == Shape::Hier) {
    // Node shape: single node (pure fan-out), all-singleton (degenerate
    // flat ring over every rank), uniform at the sampled cores/node, or a
    // fully ragged random split with occasional 1-core nodes.
    const double ns = rng.next_double();
    if (ns < 0.15) {
      c.node_sizes.assign(1, c.nranks);
    } else if (ns < 0.30) {
      c.node_sizes.assign(static_cast<std::size_t>(c.nranks), 1);
    } else if (ns < 0.60) {
      c.node_sizes.clear();  // normalize_case derives the uniform split
    } else {
      c.node_sizes.clear();
      for (int left = c.nranks; left > 0;) {
        const int s = std::min(1 + static_cast<int>(rng.next_below(8)), left);
        c.node_sizes.push_back(s);
        left -= s;
      }
    }
    c = normalize_case(c);
  }

  if (opt.faults && rng.next_double() < 0.4) {
    c.faults.enabled = true;
    c.faults.seed = rng.next();
    c.faults.delay_prob = 0.05 * rng.next_double();
    c.faults.max_delay_us = static_cast<std::uint32_t>(1 + rng.next_below(50));
    c.faults.reorder_prob = 0.3 * rng.next_double();
    c.faults.force_rendezvous_prob = 0.2 * rng.next_double();
    c.faults.force_eager_prob = 0.2 * rng.next_double();
  }
  return c;
}

std::string describe(const FuzzCase& c) {
  std::string s = to_string(c.variant);
  s += " P=" + std::to_string(c.nranks);
  s += " root=" + std::to_string(c.root);
  s += " bytes=" + std::to_string(c.nbytes);
  s += " eager=" + std::to_string(c.eager_threshold);
  if (uses(c, registry::kSegment)) {
    s += " segment=" + std::to_string(c.segment_bytes);
  }
  if (uses(c, registry::kCores)) {
    s += " cores/node=" + std::to_string(c.smp_cores_per_node);
  }
  if (collective(c.variant).shape == Shape::Hier) {
    s += " nodes=" + join_sizes(c.node_sizes) +
         " tuned=" + (c.use_tuned_ring ? "1" : "0");
  }
  if (uses(c, registry::kSelector)) {
    s += " smsg=" + std::to_string(c.smsg_limit) +
         " mmsg=" + std::to_string(c.mmsg_limit) +
         " tuned=" + (c.use_tuned_ring ? "1" : "0");
  }
  if (is_reduce_family(c.variant)) {
    s += std::string(" op=") + to_string(c.red_op) +
         " dtype=" + to_string(c.red_dtype);
  }
  if (is_allgatherv(c.variant)) {
    s += " skew-seed=" + std::to_string(c.skew_seed);
  }
  if (c.faults.enabled) {
    s += " faults{seed=" + std::to_string(c.faults.seed) +
         " delay=" + std::to_string(c.faults.delay_prob) + "/" +
         std::to_string(c.faults.max_delay_us) + "us" +
         " reorder=" + std::to_string(c.faults.reorder_prob) +
         " rndv=" + std::to_string(c.faults.force_rendezvous_prob) +
         " eager=" + std::to_string(c.faults.force_eager_prob) + "}";
  } else {
    s += " faults=off";
  }
  return s;
}

std::string reproducer(const FuzzCase& c) {
  return "bsb-fuzz --seed=" + std::to_string(c.seed) +
         " --case=" + std::to_string(c.index);
}

std::string explicit_reproducer(const FuzzCase& c) {
  std::string s = "bsb-fuzz --variant=";
  s += to_string(c.variant);
  s += " --ranks=" + std::to_string(c.nranks);
  s += " --root=" + std::to_string(c.root);
  s += " --bytes=" + std::to_string(c.nbytes);
  s += " --eager=" + std::to_string(c.eager_threshold);
  if (uses(c, registry::kSegment)) {
    s += " --segment=" + std::to_string(c.segment_bytes);
  }
  if (uses(c, registry::kCores)) {
    s += " --smp-cores=" + std::to_string(c.smp_cores_per_node);
  }
  if (collective(c.variant).shape == Shape::Hier) {
    s += " --nodes=" + join_sizes(c.node_sizes) +
         " --tuned=" + (c.use_tuned_ring ? "1" : "0");
  }
  if (uses(c, registry::kSelector)) {
    s += " --smsg=" + std::to_string(c.smsg_limit) +
         " --mmsg=" + std::to_string(c.mmsg_limit) +
         " --tuned=" + (c.use_tuned_ring ? "1" : "0");
  }
  if (is_reduce_family(c.variant)) {
    s += std::string(" --op=") + to_string(c.red_op);
    s += std::string(" --dtype=") + to_string(c.red_dtype);
  }
  if (is_allgatherv(c.variant)) {
    s += " --skew-seed=" + std::to_string(c.skew_seed);
  }
  if (c.faults.enabled) {
    s += " --fault-seed=" + std::to_string(c.faults.seed);
    s += " --delay-prob=" + std::to_string(c.faults.delay_prob);
    s += " --max-delay-us=" + std::to_string(c.faults.max_delay_us);
    s += " --reorder-prob=" + std::to_string(c.faults.reorder_prob);
    s += " --force-rndv-prob=" + std::to_string(c.faults.force_rendezvous_prob);
    s += " --force-eager-prob=" + std::to_string(c.faults.force_eager_prob);
  }
  return s;
}

}  // namespace bsb::fuzz
