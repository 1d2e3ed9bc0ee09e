#include "coll/bcast_smp.hpp"

#include <vector>

#include "bsbutil/error.hpp"
#include "coll/bcast_binomial.hpp"
#include "comm/subcomm.hpp"

namespace bsb::coll {

namespace {
// SubComm tag-namespace contexts: the leader group and every node group
// must not collide.
constexpr int kLeaderContext = 1;
constexpr int kNodeContextBase = 2;

}  // namespace

void bcast_smp(Comm& comm, std::span<std::byte> buffer, int root,
               const hier::Topology& topo, const BcastFn& inter_bcast) {
  const int P = comm.size();
  const int me = comm.rank();
  BSB_REQUIRE(topo.nranks() == P, "bcast_smp: topology size != comm size");
  BSB_REQUIRE(root >= 0 && root < P, "bcast_smp: root out of range");

  const int root_node = topo.node_of(root);
  const int my_node = topo.node_of(me);
  const bool i_am_leader = topo.is_leader(me, root);
  const std::vector<int> my_node_ranks = topo.ranks_on_node(my_node);

  // Phase 1: broadcast inside the root's node (single-rank nodes skip).
  if (my_node == root_node && my_node_ranks.size() > 1) {
    SubComm node_comm(comm, my_node_ranks, kNodeContextBase + my_node);
    bcast_binomial(node_comm, buffer, node_comm.local_rank_of(root));
  }

  // Phase 2: broadcast across node leaders.
  if (i_am_leader && topo.num_nodes() > 1) {
    SubComm leader_comm(comm, topo.leaders(root), kLeaderContext);
    inter_bcast(leader_comm, buffer, root_node);
  }

  // Phase 3: broadcast inside every non-root node.
  if (my_node != root_node && my_node_ranks.size() > 1) {
    SubComm node_comm(comm, my_node_ranks, kNodeContextBase + my_node);
    bcast_binomial(node_comm, buffer,
                   node_comm.local_rank_of(topo.leader_of(my_node, root)));
  }
}

}  // namespace bsb::coll
