#include "fuzz/shrink.hpp"

#include <vector>

#include "registry/registry.hpp"

namespace bsb::fuzz {

namespace {

bool same_config(const FuzzCase& a, const FuzzCase& b) noexcept {
  return a.variant == b.variant && a.nranks == b.nranks && a.root == b.root &&
         a.nbytes == b.nbytes && a.segment_bytes == b.segment_bytes &&
         a.eager_threshold == b.eager_threshold &&
         a.faults.enabled == b.faults.enabled;
}

/// Reductions to try from `c`, most aggressive first.
std::vector<FuzzCase> candidates(const FuzzCase& c) {
  std::vector<FuzzCase> out;
  const auto push = [&](FuzzCase cand) {
    cand = normalize_case(std::move(cand));
    if (!same_config(cand, c)) out.push_back(std::move(cand));
  };
  if (c.faults.enabled) {
    FuzzCase cand = c;
    cand.faults = mpisim::FaultConfig{};
    push(cand);
  }
  if (c.nranks > 2) {
    FuzzCase cand = c;
    cand.nranks = c.nranks / 2;
    push(cand);
    cand = c;
    cand.nranks = c.nranks - 1;
    push(cand);
  }
  if (c.nbytes > 1) {
    FuzzCase cand = c;
    cand.nbytes = c.nbytes / 2;
    push(cand);
  }
  if (c.root != 0 && !is_rootless(c.variant)) {
    FuzzCase cand = c;
    cand.root = 0;
    push(cand);
  }
  if (c.eager_threshold != 65536) {
    FuzzCase cand = c;
    cand.eager_threshold = 65536;
    push(cand);
  }
  if (c.segment_bytes != 0 &&
      (registry::collective(c.variant).params & registry::kSegment) != 0) {
    FuzzCase cand = c;
    cand.segment_bytes = 0;
    push(cand);
  }
  return out;
}

}  // namespace

ShrinkResult shrink_case(const FuzzCase& failing, Sabotage sabotage,
                         int max_reruns) {
  ShrinkResult res;
  res.minimal = failing;
  bool progressed = true;
  while (progressed && res.reruns < max_reruns) {
    progressed = false;
    for (const FuzzCase& cand : candidates(res.minimal)) {
      if (res.reruns >= max_reruns) break;
      const RunOutcome o = run_case(cand, sabotage);
      ++res.reruns;
      if (!o.ok) {
        res.minimal = cand;
        res.minimal_detail = o.detail;
        progressed = true;
        break;  // restart from the smaller config
      }
    }
  }
  if (res.minimal_detail.empty()) {
    const RunOutcome o = run_case(res.minimal, sabotage);
    ++res.reruns;
    res.minimal_detail = o.detail;
  }
  return res;
}

}  // namespace bsb::fuzz
