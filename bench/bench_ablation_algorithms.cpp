// Ablation: the full broadcast algorithm shoot-out behind MPICH3's selector
// — binomial tree, scatter+recursive-doubling, scatter+ring (native and
// tuned), pipelined ring, and the SMP-aware 3-phase broadcast with either
// ring variant inside — across the message-size spectrum. This reproduces
// the rationale for the 12288 / 524288-byte switch points and shows where
// the paper's tuned ring sits in the design space.
#include <functional>
#include <iostream>

#include "bench_common.hpp"
#include "bsbutil/format.hpp"
#include "bsbutil/table.hpp"
#include "coll/bcast_binomial.hpp"
#include "coll/bcast_ring_pipelined.hpp"
#include "coll/bcast_scatter_rd.hpp"
#include "coll/bcast_scatter_ring_native.hpp"
#include "coll/bcast_smp.hpp"
#include "core/bcast_scatter_ring_tuned.hpp"

using namespace bsb;
using namespace bsb::bench;

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const int P = 48;  // two Hornet nodes; power of two avoided on purpose? 48 = npof2
  const Topology topo = Topology::hornet(P);
  const hier::Topology nodes = hier::Topology::uniform(P, topo.cores_per_node());

  struct Algo {
    const char* name;
    std::function<void(Comm&, std::span<std::byte>, int)> run;
  };
  const std::vector<Algo> algos{
      {"binomial", [](Comm& c, std::span<std::byte> b, int r) {
         coll::bcast_binomial(c, b, r);
       }},
      {"scatter+ring(native)", [](Comm& c, std::span<std::byte> b, int r) {
         coll::bcast_scatter_ring_native(c, b, r);
       }},
      {"scatter+ring(tuned)", [](Comm& c, std::span<std::byte> b, int r) {
         core::bcast_scatter_ring_tuned(c, b, r);
       }},
      {"pipelined-ring(64KiB)", [](Comm& c, std::span<std::byte> b, int r) {
         coll::bcast_ring_pipelined(c, b, r, 65536);
       }},
      {"smp(native-inter)", [&](Comm& c, std::span<std::byte> b, int r) {
         coll::bcast_smp(c, b, r, nodes,
                         [](Comm& l, std::span<std::byte> lb, int lr) {
                           coll::bcast_scatter_ring_native(l, lb, lr);
                         });
       }},
      {"smp(tuned-inter)", [&](Comm& c, std::span<std::byte> b, int r) {
         coll::bcast_smp(c, b, r, nodes,
                         [](Comm& l, std::span<std::byte> lb, int lr) {
                           core::bcast_scatter_ring_tuned(l, lb, lr);
                         });
       }},
  };

  std::vector<std::uint64_t> sizes{1024,   12288,   65536,   262144,
                                   524288, 1048576, 4194304};
  if (opt.quick) sizes = {12288, 524288};

  std::cout << "Ablation: broadcast algorithm shoot-out, np=" << P << " ("
            << topo.describe() << ")\nbandwidth in MB/s; best per size marked *\n\n";

  std::vector<std::string> header{"msg size"};
  for (const Algo& a : algos) header.push_back(a.name);
  Table t(std::move(header));

  for (std::uint64_t nbytes : sizes) {
    const int iters = opt.quick ? 3 : (nbytes <= 65536 ? 20 : 6);
    netsim::SimSpec spec{topo, netsim::CostModel::hornet(), iters};
    std::vector<double> bw;
    for (const Algo& a : algos) {
      bw.push_back(netsim::simulate_program(
                       P, nbytes,
                       [&](Comm& comm, std::span<std::byte> buffer) {
                         a.run(comm, buffer, 0);
                       },
                       spec)
                       .bandwidth);
    }
    const double best = *std::max_element(bw.begin(), bw.end());
    std::vector<std::string> row{format_bytes(nbytes)};
    for (double v : bw) {
      row.push_back(format_mbps(v) + (v == best ? "*" : ""));
    }
    t.add(std::move(row));
  }
  std::cout << t.render()
            << "\nReading: binomial wins short messages (MPICH's 12288-byte "
               "cut), the ring family wins long ones, and the tuned ring "
               "dominates its native counterpart everywhere it applies.\n";
  return 0;
}
