// The paper's §I describes MPICH3's medium-message / non-power-of-two
// broadcast as MULTI-CORE AWARE: binomial broadcast inside the root's
// node, scatter-ring-allgather across node leaders, binomial inside every
// other node. This bench reproduces that full structure and swaps only the
// inter-node phase between the native (enclosed) and tuned ring — i.e. the
// paper's optimization applied exactly where MPICH3 would host it.
#include <iostream>

#include "bench_common.hpp"
#include "bsbutil/format.hpp"
#include "bsbutil/table.hpp"
#include "coll/bcast_scatter_ring_native.hpp"
#include "coll/bcast_smp.hpp"
#include "core/bcast_scatter_ring_tuned.hpp"

using namespace bsb;
using namespace bsb::bench;

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const std::vector<int> procs = opt.quick ? std::vector<int>{33}
                                           : std::vector<int>{33, 65, 129, 257};
  const std::vector<std::uint64_t> sizes{12288, 131072, 524287};

  std::cout << "SMP-aware broadcast (intra binomial + inter ring + intra "
               "binomial), native vs tuned inter phase\n"
            << "cluster: Hornet-like 24-core nodes; note the LEADER ring size "
               "is the node count\n\n";

  Table t({"np", "nodes", "msg size", "native MB/s", "tuned MB/s", "improvement"});
  for (int P : procs) {
    const Topology topo = Topology::hornet(P);
    const hier::Topology nodes =
        hier::Topology::uniform(P, topo.cores_per_node());
    for (std::uint64_t nbytes : sizes) {
      const int iters = opt.quick ? 4 : (nbytes <= 16384 ? 20 : 8);
      netsim::SimSpec spec{topo, netsim::CostModel::hornet(), iters};
      auto run = [&](bool tuned) {
        return netsim::simulate_program(
            P, nbytes,
            [&](Comm& c, std::span<std::byte> b) {
              coll::bcast_smp(c, b, 0, nodes,
                              [tuned](Comm& l, std::span<std::byte> lb, int lr) {
                                if (tuned) {
                                  core::bcast_scatter_ring_tuned(l, lb, lr);
                                } else {
                                  coll::bcast_scatter_ring_native(l, lb, lr);
                                }
                              });
            },
            spec);
      };
      const auto native = run(false);
      const auto tuned = run(true);
      t.add({std::to_string(P), std::to_string(topo.num_nodes()),
             format_bytes(nbytes), format_mbps(native.bandwidth),
             format_mbps(tuned.bandwidth),
             format_percent(tuned.bandwidth / native.bandwidth - 1.0)});
    }
  }
  std::cout << t.render()
            << "\nReading: with few nodes the leader ring is tiny, so the "
               "tuned ring's absolute saving is small but never negative; "
               "gains grow with the node count, matching the paper's 'both "
               "communication levels benefit' argument (§IV).\n";
  return 0;
}
