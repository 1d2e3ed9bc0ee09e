#include "fuzz/harness.hpp"

#include <chrono>
#include <ostream>

namespace bsb::fuzz {

namespace {

/// Force a sampled case onto a variant the sabotage can perturb (the
/// self-test must exercise a vulnerable schedule, not whatever the draw
/// picked).
FuzzCase force_sabotageable_variant(FuzzCase c, Sabotage sabotage) {
  if (sabotage == Sabotage::ReduceScatterDoubleFinal) {
    c.variant = Variant::ReduceScatterBlocks;
  } else if (sabotage == Sabotage::HierDoubleFanout) {
    c.variant = Variant::BcastHier;
  } else {
    switch (c.index % 4) {
      case 0: c.variant = Variant::BcastScatterRingTuned; break;
      case 1: c.variant = Variant::AllgatherRingTuned; break;
      case 2: c.variant = Variant::AllgathervRingTuned; break;
      default: c.variant = Variant::AllreduceRsAgTuned; break;
    }
  }
  return normalize_case(std::move(c));
}

}  // namespace

HarnessReport run_fuzz(const HarnessOptions& opt, std::ostream& out) {
  HarnessReport rep;
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  for (std::uint64_t i = 0; i < opt.cases; ++i) {
    if (opt.time_budget_seconds > 0 && elapsed() > opt.time_budget_seconds) {
      out << "time budget (" << opt.time_budget_seconds << "s) exhausted after "
          << rep.cases_run << " cases\n";
      break;
    }
    FuzzCase c = sample_case(opt.seed, opt.first_case + i, opt.gen);
    if (opt.sabotage != Sabotage::None && !sabotage_applies(c, opt.sabotage)) {
      c = force_sabotageable_variant(c, opt.sabotage);
    }
    if (opt.verbose) {
      out << "case " << c.index << ": " << describe(c) << "\n";
    }
    const RunOutcome o = run_case(c, opt.sabotage);
    ++rep.cases_run;
    ++rep.per_variant[static_cast<std::size_t>(c.variant)];
    rep.messages += o.messages;
    if (o.ok) continue;

    ++rep.failures;
    out << "FAIL case " << c.index << " (seed " << opt.seed << "): " << o.detail
        << "\n  reproduce: " << reproducer(c) << "\n";
    std::string shrunk_line = explicit_reproducer(c);
    std::string shrunk_detail = o.detail;
    if (opt.shrink) {
      const ShrinkResult s = shrink_case(c, opt.sabotage);
      shrunk_line = explicit_reproducer(s.minimal);
      shrunk_detail = s.minimal_detail;
      out << "  shrunk (" << s.reruns << " reruns): " << describe(s.minimal)
          << "\n  shrunk reproduce: " << shrunk_line << "\n";
    }
    if (rep.first_reproducer.empty()) {
      rep.first_reproducer = reproducer(c);
      rep.first_shrunk = shrunk_line;
      rep.first_detail = shrunk_detail;
    }
    if (rep.failures >= opt.max_failures) break;
  }

  rep.elapsed_seconds = elapsed();
  out << "fuzz: " << rep.cases_run << " cases, " << rep.messages
      << " messages, " << rep.failures << " failure(s) in " << rep.elapsed_seconds
      << "s";
  if (rep.elapsed_seconds > 0) {
    out << " (" << static_cast<std::uint64_t>(
                       static_cast<double>(rep.cases_run) / rep.elapsed_seconds)
        << " cases/s)";
  }
  out << "\n";
  if (opt.verbose || rep.cases_run > 0) {
    out << "variant coverage:";
    for (const Variant v : all_variants()) {
      out << " " << to_string(v) << "="
          << rep.per_variant[static_cast<std::size_t>(v)];
    }
    out << "\n";
  }
  return rep;
}

bool run_selftest(HarnessOptions opt, std::ostream& out) {
  opt.shrink = true;
  opt.max_failures = 1;
  // A short watchdog keeps any sabotage-induced deadlock path quick; the
  // symbolic detectors normally fire long before threads are involved.
  opt.gen.watchdog_seconds = 2.0;

  struct Probe {
    Sabotage sabotage;
    const char* what;
  };
  static constexpr Probe kProbes[] = {
      {Sabotage::RingPlanStepOffByOne,
       "corrupting RingPlan.step by +1"},
      {Sabotage::ReduceScatterDoubleFinal,
       "double-sending reduce_scatter final chunks"},
      {Sabotage::HierDoubleFanout,
       "double-delivering the hier broadcast fan-out"},
  };
  for (const Probe& probe : kProbes) {
    HarnessOptions o = opt;
    o.sabotage = probe.sabotage;
    out << "self-test: " << probe.what << "; the harness MUST catch it\n";
    const HarnessReport rep = run_fuzz(o, out);
    if (rep.failures == 0) {
      out << "self-test FAILED: sabotaged schedule was not detected\n";
      return false;
    }
    if (rep.first_shrunk.empty() || rep.first_detail.empty()) {
      out << "self-test FAILED: no shrunk reproducer produced\n";
      return false;
    }
    out << "self-test OK: sabotage detected (" << rep.first_detail << ")\n";
  }
  return true;
}

}  // namespace bsb::fuzz
