#include "registry/registry.hpp"

#include <algorithm>
#include <array>

#include "bsbutil/error.hpp"
#include "bsbutil/math.hpp"
#include "bsbutil/rng.hpp"
#include "coll/allgather_bruck.hpp"
#include "coll/allgather_bruck_hier.hpp"
#include "coll/allgather_neighbor_exchange.hpp"
#include "coll/allgather_recursive_doubling.hpp"
#include "coll/allgather_ring_native.hpp"
#include "coll/allgatherv_ring.hpp"
#include "coll/bcast_binomial.hpp"
#include "coll/bcast_ring_pipelined.hpp"
#include "coll/bcast_scatter_rd.hpp"
#include "coll/bcast_scatter_ring_native.hpp"
#include "coll/bcast_smp.hpp"
#include "coll/hier/bcast_hier.hpp"
#include "coll/hier/topology.hpp"
#include "coll/reduce_ops.hpp"
#include "coll/reduce_scatter_ring.hpp"
#include "coll/scatter_binomial.hpp"
#include "comm/chunks.hpp"
#include "comm/vchunks.hpp"
#include "core/allgather_ring_tuned.hpp"
#include "core/allgatherv_ring_tuned.hpp"
#include "core/allreduce_rsag.hpp"
#include "core/bcast.hpp"
#include "core/bcast_scatter_ring_tuned.hpp"
#include "core/icoll.hpp"
#include "core/persistent_bcast.hpp"
#include "core/ring_plan.hpp"
#include "core/transfer_analysis.hpp"
#include "mpisim/progress.hpp"
#include "mpisim/thread_comm.hpp"
#include "trace/counters.hpp"

namespace bsb::registry {

namespace {

using fuzz::FuzzCase;
using fuzz::Sabotage;
using fuzz::Variant;
using Algo = core::BcastAlgorithm;
using Buf = std::span<std::byte>;

// --- Programs ------------------------------------------------------------

core::RingPlanFn plan_fn_for(Sabotage sabotage) {
  if (sabotage == Sabotage::RingPlanStepOffByOne) {
    return [](int rel, int P) {
      core::RingPlan plan = core::compute_ring_plan(rel, P);
      plan.step += 1;  // the bug class the pairing invariant forbids
      return plan;
    };
  }
  return core::compute_ring_plan;
}

core::BcastConfig selector_config(const FuzzCase& c) {
  core::BcastConfig cfg;
  cfg.smsg_limit = c.smsg_limit;
  cfg.mmsg_limit = c.mmsg_limit;
  cfg.use_tuned_ring = c.use_tuned_ring;
  return cfg;
}

/// Distinct oracle seed for IbcastConcurrent's k-th companion broadcast
/// (k in [1, kIbcastDepth)); the primary buffer keeps oracle_seed itself.
std::uint64_t companion_seed(std::uint64_t ps, int k) noexcept {
  return ps ^ (0xc2b2ae3d27d4eb4fULL * static_cast<std::uint64_t>(k));
}

/// kIbcastDepth broadcasts (staggered roots) in flight at once on the
/// progress engine: the primary collective runs on `buf`, the companions on
/// body-local buffers whose oracle is checked right here. Under the recorder
/// there is no engine (and no data), so the same broadcasts run back to
/// back — a nonblocking collective moves exactly its blocking counterpart's
/// message multiset either way.
void ibcast_concurrent(const FuzzCase& c, Sabotage, Comm& comm, Buf buf) {
  const int P = comm.size();
  const core::BcastConfig cfg = selector_config(c);
  const std::uint64_t ps = fuzz::oracle_seed(c);
  auto root_of = [&](std::size_t k) {
    return (c.root + static_cast<int>(k) + 1) % P;
  };
  std::vector<std::vector<std::byte>> side(
      static_cast<std::size_t>(fuzz::kIbcastDepth - 1));
  for (std::size_t k = 0; k < side.size(); ++k) {
    side[k].resize(buf.size());
    const std::uint64_t cs = companion_seed(ps, static_cast<int>(k) + 1);
    fill_pattern(side[k], comm.rank() == root_of(k) ? cs : ~cs);
  }
  auto* tc = dynamic_cast<mpisim::ThreadComm*>(&comm);
  if (tc == nullptr) {
    core::bcast(comm, buf, c.root, cfg);
    for (std::size_t k = 0; k < side.size(); ++k) {
      core::bcast(comm, side[k], root_of(k), cfg);
    }
    return;
  }
  std::vector<mpisim::CollRequest> reqs;
  reqs.push_back(core::ibcast(*tc, buf, c.root, cfg));
  for (std::size_t k = 0; k < side.size(); ++k) {
    reqs.push_back(core::ibcast(*tc, side[k], root_of(k), cfg));
  }
  // A few nonblocking passes while everything is in flight, then complete
  // out of start order (the lifetime rules allow both).
  for (int pass = 0; pass < 3; ++pass) {
    for (auto& r : reqs) (void)r.test();
  }
  mpisim::wait_all_coll(reqs);
  for (std::size_t k = 0; k < side.size(); ++k) {
    const std::uint64_t cs = companion_seed(ps, static_cast<int>(k) + 1);
    const std::size_t bad = first_pattern_mismatch(side[k], cs);
    BSB_REQUIRE(bad == side[k].size(), "ibcast companion oracle mismatch");
  }
}

// --- Closed-form transfer counts ------------------------------------------

using Counts = std::pair<std::uint64_t, std::uint64_t>;  // (sends, recvs)

Counts operator+(Counts a, Counts b) {
  return {a.first + b.first, a.second + b.second};
}

/// One send and one receive per step of a P-rank enclosed ring.
Counts ring_counts(int /*rel*/, int P) {
  const auto steps = static_cast<std::uint64_t>(P - 1);
  return {steps, steps};
}

/// The tuned ring's per-rank RingPlan closed forms.
Counts tuned_counts(int rel, int P) {
  const core::RingPlan plan = core::compute_ring_plan(rel, P);
  return {static_cast<std::uint64_t>(core::tuned_sends(plan, P)),
          static_cast<std::uint64_t>(core::tuned_recvs(plan, P))};
}

/// The blocked reduce_scatter: the ring plus the phase-B delivery of each
/// finished chunk to its popcount(rel) ancestors (span - 1 arrivals).
Counts blocked_rs_counts(int rel, int P) {
  const int span = coll::scatter_subtree_span(rel, P);
  return ring_counts(rel, P) +
         Counts{static_cast<std::uint64_t>(core::block_ancestors(rel)),
                static_cast<std::uint64_t>(span - 1)};
}

/// Exact per-absolute-rank counts from a function of (rel, P).
std::vector<Counts> per_rank(const FuzzCase& c, Counts (*counts)(int, int)) {
  const int P = c.nranks;
  std::vector<Counts> out(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    out[static_cast<std::size_t>(r)] = counts(rel_rank(r, c.root, P), P);
  }
  return out;
}

struct Redundancy {
  std::uint64_t bytes = 0;
  std::uint64_t msgs = 0;
};

/// A total plus its exact redundancy (zero unless given).
TransferExpectation exact(std::uint64_t total_sends, Redundancy red = {}) {
  TransferExpectation e;
  e.total_sends = total_sends;
  e.redundant_bytes = red.bytes;
  e.redundant_msgs = red.msgs;
  return e;
}

/// A total whose redundancy is not statically checkable.
TransferExpectation total_only(std::uint64_t total_sends) {
  TransferExpectation e;
  e.total_sends = total_sends;
  return e;
}

/// Redundant traffic of the ENCLOSED ring running over binomial-scatter
/// output: relative rank `rel` owns its whole subtree chunk block but the
/// ring re-delivers every chunk except its own, so the block's other
/// chunks arrive redundantly — one full message each when nonempty.
Redundancy native_ring_redundancy(int P, std::uint64_t nbytes) {
  const ChunkLayout layout(nbytes, P);
  Redundancy red;
  for (int rel = 0; rel < P; ++rel) {
    red.bytes += coll::scatter_block_bytes(rel, layout) - layout.count(rel);
    const int span = std::min(coll::scatter_subtree_span(rel, P), P - rel);
    for (int c = rel + 1; c < rel + span; ++c) {
      if (layout.count(c) > 0) ++red.msgs;
    }
  }
  return red;
}

/// Redundant traffic of the recursive-doubling allgather running over
/// binomial-scatter output (MPICH's native medium-message path): in round
/// i, relative rank `rel` receives the 2^i-chunk block of its partner's
/// subtree root; for i < log2(own subtree span) that block is inside the
/// chunks `rel` already owns.
Redundancy rd_redundancy(int P, std::uint64_t nbytes) {
  BSB_REQUIRE(is_pow2(static_cast<std::uint64_t>(P)),
              "rd_redundancy: P must be a power of two");
  const ChunkLayout layout(nbytes, P);
  Redundancy red;
  for (int rel = 0; rel < P; ++rel) {
    const int span = coll::scatter_subtree_span(rel, P);  // 2^k
    for (int i = 0, mask = 1; mask < P; mask <<= 1, ++i) {
      const int dst_tree_root = ((rel ^ mask) >> i) << i;
      const int n = std::min(mask, P - dst_tree_root);
      const std::uint64_t bytes = layout.range_count(dst_tree_root, n);
      if (mask < span) {  // partner block lies inside the owned block
        red.bytes += bytes;
        if (bytes > 0) ++red.msgs;
      }
    }
  }
  return red;
}

/// Redundant traffic of the ENCLOSED ring allgatherv running over skewed
/// post-scatter block ownership: same shape as native_ring_redundancy but
/// weighted by the case's VarLayout, so zero-sized chunks contribute no
/// redundant message.
Redundancy allgatherv_native_redundancy(const FuzzCase& c) {
  const int P = c.nranks;
  const VarLayout layout(skewed_counts(P, c.nbytes, c.skew_seed));
  Redundancy red;
  for (int rel = 0; rel < P; ++rel) {
    const int span = coll::scatter_subtree_span(rel, P);
    red.bytes += layout.range_count(rel, span) - layout.count(rel);
    for (int ch = rel + 1; ch < rel + span; ++ch) {
      if (layout.count(ch) > 0) ++red.msgs;
    }
  }
  return red;
}

/// P ranks exchanging once per round of a ceil(log2 P)-round algorithm.
std::uint64_t log_rounds_sends(int P) {
  return static_cast<std::uint64_t>(P) *
         static_cast<std::uint64_t>(ceil_log2(static_cast<std::uint64_t>(P)));
}

TransferExpectation bcast_expectation(Algo algo, const FuzzCase& c) {
  const int P = c.nranks;
  switch (algo) {
    case Algo::Binomial:
      return exact(static_cast<std::uint64_t>(P - 1));
    case Algo::ScatterRdAllgather:
      return exact(core::scatter_transfers(P, c.nbytes) + log_rounds_sends(P),
                   rd_redundancy(P, c.nbytes));
    case Algo::ScatterRingNative:
      return exact(
          core::scatter_transfers(P, c.nbytes) + core::native_ring_transfers(P),
          native_ring_redundancy(P, c.nbytes));
    case Algo::ScatterRingTuned:
      // The paper's claim: zero re-shipped bytes.
      return exact(core::scatter_transfers(P, c.nbytes) +
                   core::tuned_ring_transfers(P));
  }
  BSB_ASSERT(false, "bcast_expectation: unknown algorithm");
}

template <Algo algo>
TransferExpectation bcast_of(const FuzzCase& c) {
  return bcast_expectation(algo, c);
}

TransferExpectation selected_bcast_expectation(const FuzzCase& c) {
  return bcast_expectation(
      core::choose_bcast_algorithm(c.nbytes, c.nranks, selector_config(c)), c);
}

/// Per-rank (sends, recvs) of the binomial scatter over a group of `L`
/// ranks at relative rank `rel` — the same closed-form walk
/// scatter_binomial performs, including the zero-byte suppression.
Counts scatter_rank_counts(int rel, int L, std::uint64_t nbytes) {
  const ChunkLayout layout(nbytes, L);
  const auto s = static_cast<std::int64_t>(layout.scatter_size());
  const auto total = static_cast<std::int64_t>(nbytes);
  std::int64_t curr = rel == 0 ? total : 0;
  std::uint64_t recvs = 0;
  int mask = 1;
  while (mask < L) {
    if (rel & mask) {
      if (total - rel * s > 0) {
        recvs = 1;
        curr = std::min<std::int64_t>(total - rel * s,
                                      static_cast<std::int64_t>(mask) * s);
      }
      break;
    }
    mask <<= 1;
  }
  std::uint64_t sends = 0;
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (rel + mask >= L) continue;
    const std::int64_t send_size = curr - static_cast<std::int64_t>(mask) * s;
    if (send_size > 0) {
      ++sends;
      curr -= send_size;
    }
  }
  return {sends, recvs};
}

/// The hierarchical broadcast. The leader phase IS the flat scatter-ring at
/// P = #leaders; the intra phase is one single-copy delivery per
/// non-leader, so the tuned hier broadcast ships zero redundant bytes and
/// the native one wastes exactly the leader-group ring excess. Per rank,
/// non-leaders see exactly that one delivery; a leader adds its scatter
/// walk and ring plan over the leader group plus (node_size - 1) fan-out
/// sends.
TransferExpectation hier_expectation(const FuzzCase& c) {
  const int P = c.nranks;
  const hier::Topology topo(c.node_sizes);
  const int L = topo.num_nodes();
  TransferExpectation e =
      exact(core::hier_bcast_transfers(P, L, c.nbytes, c.use_tuned_ring),
            c.use_tuned_ring || L == 1 ? Redundancy{}
                                       : native_ring_redundancy(L, c.nbytes));
  e.per_rank_counts.assign(static_cast<std::size_t>(P), {0, 1});
  const int leader_root = topo.node_of(c.root);
  for (int n = 0; n < L; ++n) {
    Counts counts{static_cast<std::uint64_t>(topo.node_size(n) - 1), 0};
    if (L > 1) {
      const int lrel = rel_rank(n, leader_root, L);
      counts = counts + scatter_rank_counts(lrel, L, c.nbytes) +
               (c.use_tuned_ring ? tuned_counts : ring_counts)(lrel, L);
    }
    e.per_rank_counts[static_cast<std::size_t>(topo.leader_of(n, c.root))] =
        counts;
  }
  return e;
}

std::uint64_t pipelined_sends(int P, std::uint64_t nbytes,
                              std::uint64_t segment_bytes) {
  if (P <= 1 || nbytes == 0) return 0;
  const std::uint64_t seg = segment_bytes == 0 ? nbytes : segment_bytes;
  const std::uint64_t segments = (nbytes + seg - 1) / seg;
  return static_cast<std::uint64_t>(P - 1) * segments;
}

/// Intra-node binomials (node_size - 1 each) plus the binomial scatter and
/// tuned ring over the L node leaders.
std::uint64_t smp_sends(const FuzzCase& c) {
  const hier::Topology topo =
      hier::Topology::uniform(c.nranks, c.smp_cores_per_node);
  std::uint64_t total = 0;
  for (int n = 0; n < topo.num_nodes(); ++n) {
    total += static_cast<std::uint64_t>(topo.node_size(n) - 1);
  }
  const int L = topo.num_nodes();
  if (L > 1) {
    total +=
        core::scatter_transfers(L, c.nbytes) + core::tuned_ring_transfers(L);
  }
  return total;
}

// --- Eager-buffer bounds --------------------------------------------------

/// Bytes a message of size b parks in the eager buffer: b when it takes
/// the eager path (b <= threshold), nothing under rendezvous.
std::uint64_t eligible(std::uint64_t bytes, std::uint64_t threshold) {
  return bytes <= threshold ? bytes : 0;
}

/// Inbound eager bytes of ring rank `rel` in an n-rank ring over `layout`:
/// step i receives chunk (rel - i) mod n. The native ring receives at every
/// step; the tuned ring's non-recv_only special ranks skip the steps past
/// n - plan.step (their right neighbour already owns those chunks).
std::uint64_t ring_inbound(int rel, int n, const ChunkLayout& layout,
                           bool tuned, std::uint64_t threshold) {
  int last = n - 1;
  if (tuned) {
    const core::RingPlan plan = core::compute_ring_plan(rel, n);
    if (!plan.recv_only) last = n - plan.step;
  }
  std::uint64_t sum = 0;
  for (int i = 1; i <= last; ++i) {
    sum += eligible(layout.count(((rel - i) % n + n) % n), threshold);
  }
  return sum;
}

/// Inbound eager bytes of the binomial scatter: one message holding the
/// rank's whole subtree block (nothing for the relative root, and no
/// message at all when the block is empty).
std::uint64_t scatter_inbound(int rel, const ChunkLayout& layout,
                              std::uint64_t threshold) {
  if (rel == 0) return 0;
  return eligible(coll::scatter_block_bytes(rel, layout), threshold);
}

std::vector<std::uint64_t> binomial_bound(const FuzzCase& c,
                                          std::uint64_t thr) {
  std::vector<std::uint64_t> bounds(static_cast<std::size_t>(c.nranks), 0);
  for (int r = 0; r < c.nranks; ++r) {
    if (r != c.root) {
      bounds[static_cast<std::size_t>(r)] = eligible(c.nbytes, thr);
    }
  }
  return bounds;
}

/// The ring over the uniform layout, preceded by the binomial scatter when
/// `scatter` is set.
template <bool scatter, bool tuned>
std::vector<std::uint64_t> ring_bound(const FuzzCase& c, std::uint64_t thr) {
  const int P = c.nranks;
  const ChunkLayout layout(c.nbytes, P);
  std::vector<std::uint64_t> bounds(static_cast<std::size_t>(P), 0);
  for (int r = 0; r < P; ++r) {
    const int rel = rel_rank(r, c.root, P);
    bounds[static_cast<std::size_t>(r)] =
        (scatter ? scatter_inbound(rel, layout, thr) : 0) +
        ring_inbound(rel, P, layout, tuned, thr);
  }
  return bounds;
}

std::vector<std::uint64_t> hier_bound(const FuzzCase& c, std::uint64_t thr) {
  const int P = c.nranks;
  BSB_REQUIRE(!c.node_sizes.empty(),
              "eager_peak_bounds: BcastHier case not normalized");
  const hier::Topology topo(c.node_sizes);
  BSB_REQUIRE(topo.nranks() == P,
              "eager_peak_bounds: node shape / rank count mismatch");
  const int L = topo.num_nodes();
  const ChunkLayout layout(c.nbytes, L);
  const int root_node = topo.node_of(c.root);
  std::vector<std::uint64_t> bounds(static_cast<std::size_t>(P), 0);
  for (int r = 0; r < P; ++r) {
    const int node = topo.node_of(r);
    if (topo.leader_of(node, c.root) == r) {
      // Phase A: leaders scatter + ring over the L-node leader group, whose
      // relative root is the root's node index.
      if (L > 1) {
        const int lrel = rel_rank(node, root_node, L);
        bounds[static_cast<std::size_t>(r)] =
            scatter_inbound(lrel, layout, thr) +
            ring_inbound(lrel, L, layout, c.use_tuned_ring, thr);
      }
    } else {
      // Phase B: one full-buffer single-copy delivery from the leader.
      bounds[static_cast<std::size_t>(r)] = eligible(c.nbytes, thr);
    }
  }
  return bounds;
}

// --- The table --------------------------------------------------------------

constexpr std::array<Collective, fuzz::kNumVariants> kCollectives = {{
    {.variant = Variant::BcastBinomial, .name = "bcast-binomial",
     .program = [](const FuzzCase& c, Sabotage, Comm& comm, Buf buf) {
       coll::bcast_binomial(comm, buf, c.root);
     },
     .expect = bcast_of<Algo::Binomial>,
     .rotation = true, .eager_bound = binomial_bound},

    {.variant = Variant::BcastScatterRd, .name = "bcast-scatter-rd",
     .ranks = RankRule::Pow2,
     .program = [](const FuzzCase& c, Sabotage, Comm& comm, Buf buf) {
       coll::bcast_scatter_rd(comm, buf, c.root);
     },
     .expect = bcast_of<Algo::ScatterRdAllgather>,
     .rotation = true},

    {.variant = Variant::BcastScatterRingNative,
     .name = "bcast-scatter-ring-native",
     .program = [](const FuzzCase& c, Sabotage, Comm& comm, Buf buf) {
       coll::bcast_scatter_ring_native(comm, buf, c.root);
     },
     .expect = bcast_of<Algo::ScatterRingNative>,
     .rotation = true, .eager_bound = ring_bound<true, false>},

    // The paper's MPI_Bcast_opt.
    {.variant = Variant::BcastScatterRingTuned,
     .name = "bcast-scatter-ring-tuned",
     .program = [](const FuzzCase& c, Sabotage s, Comm& comm, Buf buf) {
       const ChunkLayout layout(buf.size(), comm.size());
       coll::scatter_binomial(comm, buf, c.root, layout);
       core::allgather_ring_tuned(comm, buf, c.root, layout, plan_fn_for(s));
     },
     .sabotage = Sabotage::RingPlanStepOffByOne,
     .expect = bcast_of<Algo::ScatterRingTuned>,
     .rotation = true, .eager_bound = ring_bound<true, true>},

    {.variant = Variant::BcastRingPipelined, .name = "bcast-ring-pipelined",
     .params = kSegment,
     .program = [](const FuzzCase& c, Sabotage, Comm& comm, Buf buf) {
       coll::bcast_ring_pipelined(comm, buf, c.root, c.segment_bytes);
     },
     .expect = [](const FuzzCase& c) {
       return exact(pipelined_sends(c.nranks, c.nbytes, c.segment_bytes));
     }},

    // Tuned leader ring + disjoint node subtrees: zero redundant bytes.
    {.variant = Variant::BcastSmp, .name = "bcast-smp", .params = kCores,
     .program = [](const FuzzCase& c, Sabotage, Comm& comm, Buf buf) {
       coll::bcast_smp(
           comm, buf, c.root,
           hier::Topology::uniform(comm.size(), c.smp_cores_per_node),
           [](Comm& leaders, Buf b, int r) {
             core::bcast_scatter_ring_tuned(leaders, b, r);
           });
     },
     .expect = [](const FuzzCase& c) { return exact(smp_sends(c)); }},

    // core::bcast dispatcher with sampled thresholds.
    {.variant = Variant::BcastAuto, .name = "bcast-auto", .params = kSelector,
     .program = [](const FuzzCase& c, Sabotage, Comm& comm, Buf buf) {
       core::bcast(comm, buf, c.root, selector_config(c));
     },
     .expect = selected_bcast_expectation,
     .rotation = true},

    // core::PersistentBcast plan + execute.
    {.variant = Variant::BcastPersistent, .name = "bcast-persistent",
     .params = kSelector,
     .program = [](const FuzzCase& c, Sabotage, Comm& comm, Buf buf) {
       const core::PersistentBcast plan(comm, buf.size(), c.root,
                                        selector_config(c));
       plan.execute(buf);
     },
     .expect = selected_bcast_expectation,
     .rotation = true},

    // Contract: ranks start with ONLY their own chunk, so nothing the
    // enclosed ring delivers is redundant here; the waste appears only when
    // it runs over scatter output (BcastScatterRingNative above).
    {.variant = Variant::AllgatherRingNative, .name = "allgather-ring-native",
     .shape = Shape::BlockAllgather,
     .program = [](const FuzzCase& c, Sabotage, Comm& comm, Buf buf) {
       const ChunkLayout layout(buf.size(), comm.size());
       coll::allgather_ring_native(comm, buf, c.root, layout);
     },
     .initial = Holding::OwnChunk,
     .expect = [](const FuzzCase& c) {
       TransferExpectation e = exact(core::native_ring_transfers(c.nranks));
       e.per_rank_counts = per_rank(c, ring_counts);
       return e;
     },
     .rotation = true, .eager_bound = ring_bound<false, false>},

    // Runs over scatter_binomial output: the rank owns its whole
    // binomial-subtree chunk block, which is exactly what the tuned ring
    // exploits.
    {.variant = Variant::AllgatherRingTuned, .name = "allgather-ring-tuned",
     .shape = Shape::BlockAllgather,
     .program = [](const FuzzCase& c, Sabotage s, Comm& comm, Buf buf) {
       const ChunkLayout layout(buf.size(), comm.size());
       core::allgather_ring_tuned(comm, buf, c.root, layout, plan_fn_for(s));
     },
     .sabotage = Sabotage::RingPlanStepOffByOne,
     .initial = Holding::ScatterBlock,
     .expect = [](const FuzzCase& c) {
       TransferExpectation e = exact(core::tuned_ring_transfers(c.nranks));
       e.per_rank_counts = per_rank(c, tuned_counts);
       return e;
     },
     .rotation = true, .eager_bound = ring_bound<false, true>},

    {.variant = Variant::AllgatherRecursiveDoubling,
     .name = "allgather-recursive-doubling",
     .ranks = RankRule::Pow2, .shape = Shape::BlockAllgather,
     .program = [](const FuzzCase& c, Sabotage, Comm& comm, Buf buf) {
       const ChunkLayout layout(buf.size(), comm.size());
       coll::allgather_recursive_doubling(comm, buf, c.root, layout);
     },
     .initial = Holding::ScatterBlock,
     .expect = [](const FuzzCase& c) {
       return exact(log_rounds_sends(c.nranks),
                    rd_redundancy(c.nranks, c.nbytes));
     }},

    // Gathers into a rotated scratch buffer: its offsets are foreign to the
    // collective's buffer, so neither dataflow nor redundancy is checkable.
    {.variant = Variant::AllgatherBruck, .name = "allgather-bruck",
     .rootless = true, .shape = Shape::BlockAllgather,
     .program = [](const FuzzCase&, Sabotage, Comm& comm, Buf buf) {
       coll::allgather_bruck(comm, buf, buf.size() / comm.size());
     },
     .initial = Holding::OwnChunk,
     .expect = [](const FuzzCase& c) {
       return total_only(log_rounds_sends(c.nranks));
     },
     .dataflow = false},

    {.variant = Variant::AllgatherNeighborExchange,
     .name = "allgather-neighbor-exchange",
     .ranks = RankRule::Even, .rootless = true, .shape = Shape::BlockAllgather,
     .program = [](const FuzzCase&, Sabotage, Comm& comm, Buf buf) {
       coll::allgather_neighbor_exchange(comm, buf, buf.size() / comm.size());
     },
     .initial = Holding::OwnChunk,
     .expect = [](const FuzzCase& c) {
       return exact(static_cast<std::uint64_t>(c.nranks) *
                    static_cast<std::uint64_t>(c.nranks / 2));
     }},

    // Ownership-aware reduction family (the paper's trick beyond bcast).
    // Every byte of every rank is a live contribution; payloads are partial
    // sums, validated by the reduce-flow engine instead of coverage, and
    // redundancy means re-delivering a fully reduced chunk.

    // Plain ring: each rank keeps its own chunk.
    {.variant = Variant::ReduceScatterRing, .name = "reduce-scatter-ring",
     .shape = Shape::ReductionGrain,
     .program = [](const FuzzCase& c, Sabotage, Comm& comm, Buf buf) {
       coll::reduce_scatter_ring(comm, buf, c.root, c.red_op, c.red_dtype);
     },
     .initial = Holding::All,
     .expect = [](const FuzzCase& c) {
       TransferExpectation e = exact(core::native_ring_transfers(c.nranks));
       e.per_rank_counts = per_rank(c, ring_counts);
       return e;
     },
     .oracle = Oracle::RingFold, .reduced = Holding::OwnChunk,
     .dataflow = false},

    // Ring + ancestor delivery: binomial blocks. Phase B replaces partials,
    // never completes, so nothing is redundant.
    {.variant = Variant::ReduceScatterBlocks, .name = "reduce-scatter-blocks",
     .shape = Shape::ReductionGrain,
     .program = [](const FuzzCase& c, Sabotage s, Comm& comm, Buf buf) {
       coll::ReduceScatterBlocksOptions opts;
       opts.sabotage_double_final = s == Sabotage::ReduceScatterDoubleFinal;
       coll::reduce_scatter_blocks_ring(comm, buf, c.root, c.red_op,
                                        c.red_dtype, opts);
     },
     .sabotage = Sabotage::ReduceScatterDoubleFinal,
     .initial = Holding::All,
     .expect = [](const FuzzCase& c) {
       TransferExpectation e =
           exact(core::blocked_reduce_scatter_transfers(c.nranks));
       e.per_rank_counts = per_rank(c, blocked_rs_counts);
       return e;
     },
     .oracle = Oracle::RingFold, .reduced = Holding::ScatterBlock,
     .dataflow = false},

    // Blocks reduce_scatter + ENCLOSED allgather, which re-ships the reduced
    // chunks the blocked reduce_scatter already left on each rank — the
    // same excess the paper prices for bcast, generalized to allreduce.
    {.variant = Variant::AllreduceRsAgNative, .name = "allreduce-rsag-native",
     .shape = Shape::ReductionGrain,
     .program = [](const FuzzCase& c, Sabotage, Comm& comm, Buf buf) {
       core::allreduce_rsag_native(comm, buf, c.root, c.red_op, c.red_dtype);
     },
     .initial = Holding::All,
     .expect = [](const FuzzCase& c) {
       TransferExpectation e =
           exact(core::allreduce_rsag_native_transfers(c.nranks),
                 native_ring_redundancy(c.nranks, c.nbytes));
       e.per_rank_counts = per_rank(c, [](int rel, int P) {
         return blocked_rs_counts(rel, P) + ring_counts(rel, P);
       });
       return e;
     },
     .oracle = Oracle::RingFold, .dataflow = false},

    // Blocks reduce_scatter + tuned allgather: the generalized zero-waste
    // claim, exactly 2P(P-1) transfers.
    {.variant = Variant::AllreduceRsAgTuned, .name = "allreduce-rsag-tuned",
     .shape = Shape::ReductionGrain,
     .program = [](const FuzzCase& c, Sabotage s, Comm& comm, Buf buf) {
       core::allreduce_rsag_tuned(comm, buf, c.root, c.red_op, c.red_dtype,
                                  plan_fn_for(s));
     },
     .sabotage = Sabotage::RingPlanStepOffByOne,
     .initial = Holding::All,
     .expect = [](const FuzzCase& c) {
       TransferExpectation e =
           exact(core::allreduce_rsag_tuned_transfers(c.nranks));
       e.per_rank_counts = per_rank(c, [](int rel, int P) {
         return blocked_rs_counts(rel, P) + tuned_counts(rel, P);
       });
       return e;
     },
     .oracle = Oracle::RingFold, .dataflow = false},

    // Partial merges only, never a re-delivery.
    {.variant = Variant::AllreduceRecursiveDoubling,
     .name = "allreduce-recursive-doubling",
     .ranks = RankRule::Pow2, .rootless = true, .shape = Shape::ReductionGrain,
     .program = [](const FuzzCase& c, Sabotage, Comm& comm, Buf buf) {
       coll::allreduce_typed(comm, buf, c.red_op, c.red_dtype);
     },
     .initial = Holding::All,
     .expect = [](const FuzzCase& c) {
       const auto rounds = static_cast<std::uint64_t>(
           floor_log2(static_cast<std::uint64_t>(c.nranks)));
       TransferExpectation e =
           exact(static_cast<std::uint64_t>(c.nranks) * rounds);
       e.per_rank_counts.assign(static_cast<std::size_t>(c.nranks),
                                {rounds, rounds});
       return e;
     },
     .oracle = Oracle::TreeFold, .dataflow = false},

    // Skewed-block (allgatherv) generalization: like the tuned uniform
    // ring, both run over post-scatter BLOCK ownership (the tuned variant's
    // skips depend on it); the skewed layout decides what a block weighs.
    {.variant = Variant::AllgathervRingNative, .name = "allgatherv-ring-native",
     .shape = Shape::Skewed,
     .program = [](const FuzzCase& c, Sabotage, Comm& comm, Buf buf) {
       const VarLayout layout(
           skewed_counts(comm.size(), buf.size(), c.skew_seed));
       coll::allgatherv_ring_native(comm, buf, c.root, layout);
     },
     .initial = Holding::ScatterBlock,
     .expect = [](const FuzzCase& c) {
       TransferExpectation e = exact(core::native_ring_transfers(c.nranks),
                                     allgatherv_native_redundancy(c));
       e.per_rank_counts = per_rank(c, ring_counts);
       return e;
     }},

    // Skew-oblivious plan, still zero waste.
    {.variant = Variant::AllgathervRingTuned, .name = "allgatherv-ring-tuned",
     .shape = Shape::Skewed,
     .program = [](const FuzzCase& c, Sabotage s, Comm& comm, Buf buf) {
       const VarLayout layout(
           skewed_counts(comm.size(), buf.size(), c.skew_seed));
       core::allgatherv_ring_tuned(comm, buf, c.root, layout, plan_fn_for(s));
     },
     .sabotage = Sabotage::RingPlanStepOffByOne,
     .initial = Holding::ScatterBlock,
     .expect = [](const FuzzCase& c) {
       TransferExpectation e = exact(core::tuned_ring_transfers(c.nranks));
       e.per_rank_counts = per_rank(c, tuned_counts);
       return e;
     }},

    // Locality-aware comparison point; scratch rotation like flat Bruck.
    {.variant = Variant::AllgatherBruckHier, .name = "allgather-bruck-hier",
     .rootless = true, .shape = Shape::BlockAllgather, .params = kCores,
     .program = [](const FuzzCase& c, Sabotage, Comm& comm, Buf buf) {
       coll::allgather_bruck_hier(comm, buf, buf.size() / comm.size(),
                                  c.smp_cores_per_node);
     },
     .initial = Holding::OwnChunk,
     .expect = [](const FuzzCase& c) {
       return total_only(
           core::bruck_hier_transfers(c.nranks, c.smp_cores_per_node));
     },
     .dataflow = false},

    // Nonblocking front-end: kIbcastDepth same-shape broadcasts in flight
    // (the root stagger never changes a count). The companions live in
    // body-local buffers, so two thirds of the recorded offsets are foreign
    // and redundancy is not statically checkable; the contract states the
    // PRIMARY buffer's.
    {.variant = Variant::IbcastConcurrent, .name = "ibcast-concurrent",
     .params = kSelector,
     .program = ibcast_concurrent,
     .expect = [](const FuzzCase& c) {
       return total_only(*selected_bcast_expectation(c).total_sends *
                         static_cast<std::uint64_t>(fuzz::kIbcastDepth));
     },
     .dataflow = false},

    // Hierarchical broadcast over an explicit ragged node shape: leaders run
    // the scatter-ring over their own sub-communicator, then single-copy
    // fan-out within each node (src/coll/hier).
    {.variant = Variant::BcastHier, .name = "bcast-hier", .shape = Shape::Hier,
     .program = [](const FuzzCase& c, Sabotage s, Comm& comm, Buf buf) {
       core::HierBcastOptions opts;
       opts.tuned = c.use_tuned_ring;
       opts.sabotage_double_fanout = s == Sabotage::HierDoubleFanout;
       core::bcast_hier(comm, buf, c.root, hier::Topology(c.node_sizes), opts);
     },
     .sabotage = Sabotage::HierDoubleFanout,
     .expect = hier_expectation,
     .eager_bound = hier_bound},
}};

constexpr bool rows_in_enum_order() {
  for (std::size_t i = 0; i < kCollectives.size(); ++i) {
    if (static_cast<std::size_t>(kCollectives[i].variant) != i) return false;
  }
  return true;
}
static_assert(rows_in_enum_order(), "kCollectives rows must follow enum order");

}  // namespace

const Collective& collective(Variant v) noexcept {
  return kCollectives[static_cast<std::size_t>(v)];
}

std::pair<int, int> held_chunks(Holding h, int rel, int P) {
  switch (h) {
    case Holding::Root: return {0, rel == 0 ? P : 0};
    case Holding::OwnChunk: return {rel, 1};
    case Holding::ScatterBlock:
      return {rel, coll::scatter_subtree_span(rel, P)};
    case Holding::All: return {0, P};
  }
  BSB_ASSERT(false, "held_chunks: unknown holding");
}

std::vector<Interval> held_bytes(Holding h, const FuzzCase& c) {
  const Collective& k = collective(c.variant);
  const int P = c.nranks;
  std::vector<Interval> out(static_cast<std::size_t>(P));
  auto fill = [&](const auto& layout) {
    for (int r = 0; r < P; ++r) {
      const auto [first, n] =
          held_chunks(h, k.rootless ? r : rel_rank(r, c.root, P), P);
      const std::uint64_t lo = layout.disp(first);
      out[static_cast<std::size_t>(r)] = {lo,
                                          lo + layout.range_count(first, n)};
    }
  };
  if (k.shape == Shape::Skewed) {
    fill(VarLayout(skewed_counts(P, c.nbytes, c.skew_seed)));
  } else {
    fill(ChunkLayout(c.nbytes, P));
  }
  return out;
}

std::string count_mismatch(const std::string& what, std::uint64_t got,
                           std::uint64_t want) {
  return what + ": schedule has " + std::to_string(got) +
         ", closed form says " + std::to_string(want);
}

void check_transfers(const trace::Schedule& sched,
                     const TransferExpectation& expect,
                     std::vector<std::string>* failures) {
  if (expect.total_sends && sched.total_sends() != *expect.total_sends) {
    failures->push_back(count_mismatch("transfers: total messages",
                                       sched.total_sends(),
                                       *expect.total_sends));
  }
  if (expect.per_rank_counts.empty()) return;
  const auto per_rank = trace::per_rank_op_counts(sched);
  for (int r = 0; r < sched.nranks && failures->size() < 8; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    const auto [sends, recvs] = expect.per_rank_counts[ri];
    const std::string rank = "transfers: rank " + std::to_string(r);
    if (per_rank[ri].sends != sends) {
      failures->push_back(
          count_mismatch(rank + " sends", per_rank[ri].sends, sends));
    }
    if (per_rank[ri].recvs != recvs) {
      failures->push_back(
          count_mismatch(rank + " recvs", per_rank[ri].recvs, recvs));
    }
  }
}

}  // namespace bsb::registry
