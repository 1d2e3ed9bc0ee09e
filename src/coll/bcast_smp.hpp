// Multi-core-aware (SMP) broadcast, as MPICH3 structures it for medium
// messages with non-power-of-two counts (paper §I):
//   1. binomial broadcast inside the root's node,
//   2. inter-node broadcast across one leader per node,
//   3. binomial broadcast inside every other node.
// The inter-node phase is pluggable so it can run either the native or the
// tuned scatter-ring-allgather.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "coll/hier/topology.hpp"
#include "comm/comm.hpp"

namespace bsb::coll {

/// An inter-node broadcast body: (leader comm, buffer, root-leader rank).
using BcastFn = std::function<void(Comm&, std::span<std::byte>, int)>;

/// `topo.nranks()` must equal comm.size(). Nodes may be ragged: non-divisible
/// node sizes, single-rank nodes and leader != first-rank-of-node shapes all
/// work. Leaders follow hier::Topology::leader_of (the root leads its own
/// node, the lowest rank every other); hier::Topology::uniform gives the
/// classic cores-per-node block placement.
void bcast_smp(Comm& comm, std::span<std::byte> buffer, int root,
               const hier::Topology& topo, const BcastFn& inter_bcast);

}  // namespace bsb::coll
