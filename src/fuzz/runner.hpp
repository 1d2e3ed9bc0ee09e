// Differential runner for one fuzz case: records the variant's schedule and
// validates it symbolically (matching + the registry's closed-form transfer
// counts, checked exactly as bsb-verify checks them), then executes it on
// the mpisim thread backend — under the case's fault plan — and compares
// every rank's result buffer byte-for-byte against the variant's oracle.
// Hangs become DeadlockError via the watchdog, so every failure mode ends
// up as a reportable string, never a stuck process.
#pragma once

#include <cstdint>
#include <string>

#include "fuzz/case.hpp"

namespace bsb::fuzz {

struct RunOutcome {
  bool ok = true;
  /// Empty when ok; otherwise the first discrepancy, in the order the
  /// checks run (symbolic first, so self-test failures surface without
  /// waiting out the watchdog).
  std::string detail;
  /// Messages the threaded run moved (0 if it was not reached).
  std::uint64_t messages = 0;
};

/// True when `sabotage` can perturb this case at all (self-test cases must
/// pick a tuned-ring variant).
bool sabotage_applies(const FuzzCase& c, Sabotage sabotage) noexcept;

/// The per-rank program for the case's variant (optionally sabotaged).
/// Shared by the differential runner and the static schedule verifier so
/// both analyze the same operation sequence.
RankBody make_rank_body(const FuzzCase& c, Sabotage sabotage = Sabotage::None);

RunOutcome run_case(const FuzzCase& c, Sabotage sabotage = Sabotage::None);

}  // namespace bsb::fuzz
