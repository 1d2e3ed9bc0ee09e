#include "verify/conformance.hpp"

#include "bsbutil/error.hpp"
#include "comm/chunks.hpp"

namespace bsb::verify {

using fuzz::FuzzCase;
using registry::collective;
using registry::Oracle;

TransferExpectation expected_transfers(const FuzzCase& c) {
  return collective(c.variant).expect(c);
}

std::vector<IntervalSet> initial_coverage(const FuzzCase& c) {
  const std::vector<Interval> held =
      registry::held_bytes(collective(c.variant).initial, c);
  return {held.begin(), held.end()};
}

bool dataflow_checkable(fuzz::Variant v) noexcept {
  return collective(v).dataflow;
}

bool reduction_checkable(fuzz::Variant v) noexcept {
  return collective(v).oracle != Oracle::Pattern;
}

trace::ReduceFlowOptions reduce_flow_options(const FuzzCase& c) {
  const registry::Collective& k = collective(c.variant);
  BSB_REQUIRE(k.oracle != Oracle::Pattern,
              "reduce_flow_options: not a reduction-family case");
  BSB_REQUIRE(c.nbytes > 0, "reduce_flow_options: nbytes must be positive");
  const int P = c.nranks;
  trace::ReduceFlowOptions opt;
  opt.root = c.root;
  if (k.oracle == Oracle::TreeFold) {
    // Whole-buffer partials halve the contributor gap each round; a single
    // chunk models that exactly.
    opt.nchunks = 1;
    opt.chunk_bytes = c.nbytes;
    opt.required.assign(static_cast<std::size_t>(P), {0, 1});
    return opt;
  }
  opt.nchunks = P;
  opt.chunk_bytes = c.nbytes / static_cast<std::uint64_t>(P);
  opt.required.resize(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    opt.required[static_cast<std::size_t>(r)] =
        registry::held_chunks(k.reduced, rel_rank(r, c.root, P), P);
  }
  return opt;
}

}  // namespace bsb::verify
