// The verifier's view of each variant's registry row (registry/registry.hpp):
// closed-form transfer counts, including exact redundant-transfer
// accounting (the paper's excess: the enclosed ring re-ships bytes the
// receiver already owns after the binomial scatter), and the
// initial-ownership contract. The verifier checks recorded schedules
// against these; a mismatch is a conformance failure, never a tolerance.
// The fuzz runner fills its buffers from the same contract and checks the
// same closed forms, so the independent references are its threaded byte
// oracles (pattern and reduction fold), not a second copy of these facts.
#pragma once

#include <vector>

#include "bsbutil/intervals.hpp"
#include "fuzz/case.hpp"
#include "registry/registry.hpp"
#include "trace/reduce_flow.hpp"

namespace bsb::verify {

using registry::TransferExpectation;

/// Closed-form expectation for the case's recorded schedule.
TransferExpectation expected_transfers(const fuzz::FuzzCase& c);

/// Bytes each rank holds valid BEFORE the collective runs — the variant's
/// ownership contract.
std::vector<IntervalSet> initial_coverage(const fuzz::FuzzCase& c);

/// False for variants whose spans live in scratch memory (Bruck rotation)
/// or body-local buffers (IbcastConcurrent's companions), where offsets
/// cannot be dataflow-validated, and for the reduction family, whose
/// payloads are partial sums rather than copies of source bytes (those are
/// validated by the reduce-flow engine instead).
bool dataflow_checkable(fuzz::Variant v) noexcept;

/// True for the reduction family: the recorded schedule must satisfy the
/// contributor-interval rules of trace::validate_reduce_flow.
bool reduction_checkable(fuzz::Variant v) noexcept;

/// Options driving the reduce-flow validation of this case's schedule:
/// chunk grid, root, and the relative chunk range each absolute rank must
/// hold fully reduced at the end. Requires a reduction-family case with
/// nbytes > 0.
trace::ReduceFlowOptions reduce_flow_options(const fuzz::FuzzCase& c);

}  // namespace bsb::verify
