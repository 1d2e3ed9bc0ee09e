#include "verify/verifier.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>

#include "bsbutil/error.hpp"
#include "coll/scatter_binomial.hpp"
#include "core/ring_plan.hpp"
#include "core/transfer_analysis.hpp"
#include "trace/coverage.hpp"
#include "trace/match.hpp"
#include "trace/record.hpp"
#include "verify/conformance.hpp"
#include "verify/equiv.hpp"
#include "verify/hb.hpp"
#include "verify/lint.hpp"

namespace bsb::verify {

namespace {

using fuzz::FuzzCase;
using fuzz::Variant;
using registry::count_mismatch;

void add_failure(CaseResult* res, const std::string& what) {
  res->ok = false;
  res->failures.push_back(what);
}

bool is_hier(fuzz::Variant v) noexcept {
  return registry::collective(v).shape == registry::Shape::Hier;
}

/// The shared property suite: lint, match, happens-before (per threshold),
/// dataflow coverage + redundancy, and transfer-count conformance.
/// `expect` and `cfg` are optional (hand-built schedules have neither).
void verify_impl(const trace::Schedule& sched, int root,
                 const VerifyOptions& opt,
                 const std::vector<IntervalSet>* initial,
                 const TransferExpectation* expect, const FuzzCase* cfg,
                 bool dataflow, CaseResult* res) {
  res->total_ops = sched.total_ops();
  res->total_sends = sched.total_sends();
  res->total_send_bytes = sched.total_send_bytes();

  // 1. Lint: structural hygiene. Errors invalidate the schedule.
  const LintReport lint = lint_schedule(sched);
  for (const LintFinding& f : lint.findings) {
    if (f.severity == LintSeverity::Warning) ++res->lint_warnings;
  }
  if (!lint.ok) {
    add_failure(res, "lint:\n" + lint.to_string());
  }

  // 2. Match: every send must pair with a receive (MPI non-overtaking).
  trace::MatchResult m;
  try {
    m = trace::match_schedule(sched);
  } catch (const trace::ScheduleError& e) {
    add_failure(res, std::string("match: ") + e.what());
    return;  // nothing downstream is meaningful without a matching
  }

  // 3. Happens-before: deadlock freedom under every requested threshold,
  // plus buffer safety (threshold-independent; reported once).
  bool first_threshold = true;
  for (const std::uint64_t thr : opt.eager_thresholds) {
    const HbReport hb = analyze_hb(sched, m, HbOptions{thr});
    res->eager_high_water_bytes =
        std::max(res->eager_high_water_bytes, hb.eager_high_water_bytes);
    if (hb.deadlock) {
      add_failure(res, "deadlock[eager_threshold=" + std::to_string(thr) +
                           "]:\n" + hb.diagnostics);
    }
    // 3b. Symbolic eager bounds: the greedy per-rank high-water must be
    // dominated by the closed form derived from the variant's structure.
    // Skipped on deadlock: the stuck fixpoint leaves residency partial.
    if (cfg != nullptr && opt.check_bounds && !hb.deadlock &&
        eager_bound_checkable(cfg->variant)) {
      const std::vector<std::uint64_t> bound = eager_peak_bounds(*cfg, thr);
      res->eager_bounds_checked = true;
      for (int r = 0; r < sched.nranks; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        res->eager_bound_max = std::max(res->eager_bound_max, bound[ri]);
        if (ri < hb.rank_eager_high_water.size() &&
            hb.rank_eager_high_water[ri] > bound[ri]) {
          add_failure(res, "bounds: rank " + std::to_string(r) +
                               " eager high-water " +
                               std::to_string(hb.rank_eager_high_water[ri]) +
                               " exceeds the closed form " +
                               std::to_string(bound[ri]) + " at threshold " +
                               std::to_string(thr));
          break;  // one witness per threshold keeps the report readable
        }
      }
    }
    if (first_threshold && !hb.races.empty()) {
      std::string what = "race:";
      for (const BufferRace& race : hb.races) {
        what += "\n  rank " + std::to_string(race.rank) + " op " +
                std::to_string(race.op) + " sendrecv: send [" +
                std::to_string(race.send.lo) + "," +
                std::to_string(race.send.hi) + ") overlaps recv [" +
                std::to_string(race.recv.lo) + "," +
                std::to_string(race.recv.hi) + ")";
      }
      add_failure(res, what);
    }
    first_threshold = false;
  }

  // 3c. Shm-pool occupancy proof for the hier fan-out phase.
  if (cfg != nullptr && opt.check_bounds && is_hier(cfg->variant) &&
      !cfg->node_sizes.empty()) {
    const ShmPoolReport shm = verify_shm_pool(sched, cfg->node_sizes, root);
    res->shm_checked = true;
    res->shm_peak_node_bytes = shm.peak_node_bytes;
    if (!shm.ok) {
      std::string what = "bounds: shm pool occupancy violated (peak " +
                         std::to_string(shm.peak_node_bytes) +
                         " B vs provisioned " +
                         std::to_string(shm.bound_node_bytes) + " B)";
      for (const std::string& w : shm.witnesses) what += "\n  " + w;
      add_failure(res, what);
    }
  }

  // 4. Dataflow coverage + redundancy under the initial-ownership contract.
  if (dataflow) {
    trace::CoverageOptions copt;
    if (initial != nullptr) copt.initial = *initial;
    const trace::CoverageReport cov =
        trace::validate_coverage(sched, m, root, copt);
    res->dataflow_checked = true;
    res->redundant_bytes = cov.redundant_bytes;
    res->redundant_msgs = cov.redundant_msgs;
    if (!cov.ok) {
      add_failure(res, "coverage:\n" + cov.diagnostics);
    }
    if (expect != nullptr && cov.ok) {
      if (expect->redundant_bytes &&
          cov.redundant_bytes != *expect->redundant_bytes) {
        add_failure(res, count_mismatch("redundancy: redundant bytes",
                                        cov.redundant_bytes,
                                        *expect->redundant_bytes));
      }
      if (expect->redundant_msgs &&
          cov.redundant_msgs != *expect->redundant_msgs) {
        add_failure(res, count_mismatch("redundancy: fully-redundant messages",
                                        cov.redundant_msgs,
                                        *expect->redundant_msgs));
      }
    }
  }

  // 4b. Reduce-flow: contributor-interval validation for the reduction
  // family (partial sums instead of byte copies; the coverage engine does
  // not apply). Redundancy here means a fully reduced chunk delivered to a
  // rank that already held it fully reduced.
  if (cfg != nullptr && reduction_checkable(cfg->variant) &&
      sched.nbytes > 0) {
    const trace::ReduceFlowReport rf =
        trace::validate_reduce_flow(sched, m, reduce_flow_options(*cfg));
    res->reduce_flow_checked = true;
    res->redundant_bytes = rf.redundant_bytes;
    res->redundant_msgs = rf.redundant_msgs;
    if (!rf.ok) {
      add_failure(res, "reduce-flow:\n" + rf.diagnostics);
    }
    if (expect != nullptr && rf.ok) {
      if (expect->redundant_bytes &&
          rf.redundant_bytes != *expect->redundant_bytes) {
        add_failure(res, count_mismatch("redundancy: redundant reduced bytes",
                                        rf.redundant_bytes,
                                        *expect->redundant_bytes));
      }
      if (expect->redundant_msgs &&
          rf.redundant_msgs != *expect->redundant_msgs) {
        add_failure(res,
                    count_mismatch("redundancy: fully-redundant reduced messages",
                                   rf.redundant_msgs, *expect->redundant_msgs));
      }
    }
  }

  // 5. Transfer-count conformance against the closed forms.
  if (expect != nullptr) {
    registry::check_transfers(sched, *expect, &res->failures);
    if (!res->failures.empty()) res->ok = false;
  }
}

}  // namespace

std::string CaseResult::summary() const {
  std::string out = label.empty() ? describe(config) : label;
  if (ok) {
    out += " -- ok (" + std::to_string(total_sends) + " msgs, " +
           std::to_string(redundant_msgs) + " redundant)";
    return out;
  }
  for (const std::string& f : failures) out += "\n  FAIL " + f;
  return out;
}

CaseResult verify_case(const FuzzCase& c, const VerifyOptions& opt,
                       fuzz::Sabotage sabotage) {
  CaseResult res;
  res.config = c;
  trace::Schedule sched;
  try {
    sched = trace::record_schedule(c.nranks, c.nbytes,
                                   fuzz::make_rank_body(c, sabotage));
  } catch (const Error& e) {
    add_failure(&res, std::string("record: ") + e.what());
    return res;
  }
  const TransferExpectation expect = expected_transfers(c);
  const std::vector<IntervalSet> initial = initial_coverage(c);
  const bool dataflow = opt.check_dataflow && dataflow_checkable(c.variant);
  verify_impl(sched, c.root, opt, &initial, &expect, &c, dataflow, &res);
  // 6. Rotation equivalence: the freshly recorded root-r schedule must be
  // the rotated root-0 plan. Sabotaged runs are skipped — the sabotage is
  // applied to the fresh recording only, so the canonical program differs
  // by construction, not by a cache bug.
  if (opt.check_rotation && sabotage == fuzz::Sabotage::None &&
      rotation_checkable(c.variant)) {
    const RotationReport rot = prove_rotation_equivalence(c, sched);
    res.rotation_checked = true;
    res.rotation_full_graph = rot.full_graph_checked;
    res.rotation_steps = rot.steps_compared;
    if (!rot.ok) {
      add_failure(&res, "rotation: " + rot.to_string());
    }
  }
  return res;
}

CaseResult verify_schedule(const trace::Schedule& sched, int root,
                           const VerifyOptions& opt,
                           const std::vector<IntervalSet>* initial) {
  CaseResult res;
  res.config.nranks = sched.nranks;
  res.config.nbytes = sched.nbytes;
  res.config.root = root;
  res.label = "schedule P=" + std::to_string(sched.nranks) +
              " bytes=" + std::to_string(sched.nbytes) +
              " root=" + std::to_string(root);
  verify_impl(sched, root, opt, initial, nullptr, nullptr, opt.check_dataflow,
              &res);
  return res;
}

std::vector<int> default_plist(int pmax) {
  std::set<int> ps;
  for (int p = 2; p <= std::min(pmax, 17); ++p) ps.insert(p);
  for (const int p : {24, 31, 32, 33, 48, 63, 64, 65, 96, 100, 127, 128, 192,
                      256, 512, 1024, 2048, 4096}) {
    if (p <= pmax) ps.insert(p);
  }
  if (pmax >= 2) ps.insert(pmax);
  return {ps.begin(), ps.end()};
}

namespace {

/// Dense arithmetic cross-check of the closed forms for every P: the
/// per-rank ring plans must sum to the totals, the tuned total must be
/// native minus savings, and the paper's in-text anchors must hold.
void closed_form_density_check(int pmax, SweepReport* report) {
  auto fail = [&](std::string what) {
    report->closed_form_failures.push_back(std::move(what));
  };
  for (int P = 2; P <= pmax; ++P) {
    const std::uint64_t native = core::native_ring_transfers(P);
    const std::uint64_t tuned = core::tuned_ring_transfers(P);
    const std::uint64_t savings = core::tuned_ring_savings(P);
    if (native != static_cast<std::uint64_t>(P) *
                      static_cast<std::uint64_t>(P - 1)) {
      fail("P=" + std::to_string(P) + ": native != P*(P-1)");
    }
    if (native != tuned + savings) {
      fail("P=" + std::to_string(P) + ": native != tuned + savings");
    }
    std::uint64_t plan_sends = 0, plan_recvs = 0;
    for (int rel = 0; rel < P; ++rel) {
      const core::RingPlan plan = core::compute_ring_plan(rel, P);
      plan_sends += static_cast<std::uint64_t>(core::tuned_sends(plan, P));
      plan_recvs += static_cast<std::uint64_t>(core::tuned_recvs(plan, P));
    }
    if (plan_sends != tuned || plan_recvs != tuned) {
      fail("P=" + std::to_string(P) + ": per-rank ring plans sum to " +
           std::to_string(plan_sends) + " sends / " +
           std::to_string(plan_recvs) + " recvs, closed form says " +
           std::to_string(tuned));
    }
    // Reduction-family identities. The popcount identity
    // sum_rel popcount(rel) == sum_rel (span(rel) - 1) == savings prices
    // the blocked reduce_scatter's phase-B delivery at exactly the tuned
    // ring's savings, which is why the tuned allreduce collapses to
    // 2P(P-1): the extra delivery and the allgather savings cancel.
    std::uint64_t anc_sum = 0, span_sum = 0;
    for (int rel = 0; rel < P; ++rel) {
      anc_sum += static_cast<std::uint64_t>(core::block_ancestors(rel));
      span_sum += static_cast<std::uint64_t>(
          coll::scatter_subtree_span(rel, P) - 1);
    }
    if (anc_sum != savings || span_sum != savings) {
      fail("P=" + std::to_string(P) + ": popcount identity broken (" +
           std::to_string(anc_sum) + " ancestors / " + std::to_string(span_sum) +
           " span excess vs savings " + std::to_string(savings) + ")");
    }
    if (core::blocked_reduce_scatter_transfers(P) != native + savings) {
      fail("P=" + std::to_string(P) + ": blocked RS != native + savings");
    }
    if (core::allreduce_rsag_native_transfers(P) !=
        core::blocked_reduce_scatter_transfers(P) + native) {
      fail("P=" + std::to_string(P) + ": allreduce native != blocked RS + native");
    }
    if (core::allreduce_rsag_tuned_transfers(P) != 2 * native) {
      fail("P=" + std::to_string(P) + ": allreduce tuned != 2P(P-1)");
    }
    // Hierarchical identities: the leader phase IS the flat formula at
    // P = #leaders (scatter L-1 when no chunk is suppressed, plus the
    // native/tuned ring), and the intra phase is exactly one single-copy
    // delivery per non-leader.
    for (const int L : std::set<int>{1, 2, (P + 1) / 2, P}) {
      if (L < 1 || L > P) continue;
      // An exact multiple of L keeps every scatter chunk non-empty; a fixed
      // size would suppress the tail chunk once ceil(n/L)*(L-1) >= n.
      const std::uint64_t big = static_cast<std::uint64_t>(L) << 10;
      const std::uint64_t edges = L == 1 ? 0 : static_cast<std::uint64_t>(L - 1);
      const std::uint64_t want_native =
          L == 1 ? 0 : edges + core::native_ring_transfers(L);
      const std::uint64_t want_tuned =
          L == 1 ? 0 : edges + core::tuned_ring_transfers(L);
      if (core::hier_inter_transfers(L, big, false) != want_native ||
          core::hier_inter_transfers(L, big, true) != want_tuned) {
        fail("P=" + std::to_string(P) + " L=" + std::to_string(L) +
             ": hier inter-node counts != flat leader-group forms");
      }
      if (core::hier_bcast_transfers(P, L, big, true) !=
          want_tuned + static_cast<std::uint64_t>(P - L)) {
        fail("P=" + std::to_string(P) + " L=" + std::to_string(L) +
             ": hier total != inter + one copy per non-leader");
      }
      report->proofs += 2;
    }
    report->proofs += 8;
  }
  // The paper's Section IV anchors.
  struct Anchor {
    int P;
    std::uint64_t native, tuned;
  };
  // Hier anchors derived from them: a leader group of 8 (resp. 10) moves
  // 7 + 56 = 63 native / 7 + 44 = 51 tuned inter-node messages (resp.
  // 99 -> 84) when no scatter chunk is suppressed.
  struct HierAnchor {
    int L;
    std::uint64_t native, tuned;
  };
  for (const HierAnchor a : {HierAnchor{8, 63, 51}, HierAnchor{10, 99, 84}}) {
    if (a.L > pmax) continue;
    const std::uint64_t big = std::uint64_t{1} << 20;
    if (core::hier_inter_transfers(a.L, big, false) != a.native ||
        core::hier_inter_transfers(a.L, big, true) != a.tuned) {
      fail("hier anchor L=" + std::to_string(a.L) + ": expected " +
           std::to_string(a.native) + " -> " + std::to_string(a.tuned) +
           ", closed forms give " +
           std::to_string(core::hier_inter_transfers(a.L, big, false)) + " -> " +
           std::to_string(core::hier_inter_transfers(a.L, big, true)));
    }
    report->proofs += 1;
  }
  for (const Anchor a : {Anchor{8, 56, 44}, Anchor{10, 90, 75}}) {
    if (a.P > pmax) continue;
    if (core::native_ring_transfers(a.P) != a.native ||
        core::tuned_ring_transfers(a.P) != a.tuned) {
      fail("paper anchor P=" + std::to_string(a.P) + ": expected " +
           std::to_string(a.native) + " -> " + std::to_string(a.tuned) +
           ", closed forms give " +
           std::to_string(core::native_ring_transfers(a.P)) + " -> " +
           std::to_string(core::tuned_ring_transfers(a.P)));
    }
    report->proofs += 1;
  }
  // The generalized family's anchors (analogue of 56->44 / 90->75): the
  // blocked reduce_scatter and the two rsag allreduce flavours.
  struct FamilyAnchor {
    int P;
    std::uint64_t blocked_rs, ar_native, ar_tuned;
  };
  for (const FamilyAnchor a :
       {FamilyAnchor{8, 68, 124, 112}, FamilyAnchor{10, 105, 195, 180}}) {
    if (a.P > pmax) continue;
    if (core::blocked_reduce_scatter_transfers(a.P) != a.blocked_rs ||
        core::allreduce_rsag_native_transfers(a.P) != a.ar_native ||
        core::allreduce_rsag_tuned_transfers(a.P) != a.ar_tuned) {
      fail("family anchor P=" + std::to_string(a.P) + ": expected " +
           std::to_string(a.blocked_rs) + " / " + std::to_string(a.ar_native) +
           " -> " + std::to_string(a.ar_tuned) + ", closed forms give " +
           std::to_string(core::blocked_reduce_scatter_transfers(a.P)) + " / " +
           std::to_string(core::allreduce_rsag_native_transfers(a.P)) + " -> " +
           std::to_string(core::allreduce_rsag_tuned_transfers(a.P)));
    }
    report->proofs += 1;
  }
}

std::vector<int> roots_for(int P, int all_roots_upto) {
  std::vector<int> roots;
  if (P <= all_roots_upto) {
    for (int r = 0; r < P; ++r) roots.push_back(r);
    return roots;
  }
  std::set<int> sample;
  if (P <= 512) {
    sample = {0, 1, P / 2, P - 1};
  } else if (P <= 1536) {
    sample = {0, P / 2};
  } else {
    sample = {0};  // quadratic schedules: one root keeps the sweep bounded
  }
  return {sample.begin(), sample.end()};
}

/// Node-shape configurations the hier sweep proves per (P, root, nbytes):
/// uniform 4/node (ragged last node when 4 does not divide P), a 1-core
/// node wedged before bigger ones, the all-singleton degenerate shape
/// (every rank leads: the flat ring re-emerges), a single node (pure
/// fan-out), and one native-ring case for the redundancy accounting.
struct HierShape {
  std::vector<int> node_sizes;  // empty = uniform from smp_cores_per_node
  bool tuned = true;
};

std::vector<HierShape> hier_shapes(int P) {
  std::vector<HierShape> shapes;
  shapes.push_back({{}, true});
  if (P >= 3) {
    std::vector<int> wedge{1};
    for (int left = P - 1; left > 0; left -= 5) {
      wedge.push_back(std::min(5, left));
    }
    shapes.push_back({std::move(wedge), true});
  }
  shapes.push_back({std::vector<int>(static_cast<std::size_t>(P), 1), true});
  shapes.push_back({{P}, true});
  shapes.push_back({{}, false});
  return shapes;
}

FuzzCase sweep_case(Variant v, int P, int root, std::uint64_t nbytes) {
  FuzzCase c;
  c.variant = v;
  c.nranks = P;
  c.nbytes = nbytes;
  c.root = root;
  c.segment_bytes = 4096;
  c.smp_cores_per_node = 4;
  if (fuzz::is_allgatherv(v)) {
    // Deterministic skew per (P, nbytes) so sweep runs are reproducible but
    // still exercise distinct partitions (including zero-sized chunks).
    c.skew_seed = 0x5eedu + static_cast<std::uint64_t>(P) * 1315423911u + nbytes;
  }
  // Selector thresholds stay at the MPICH defaults (FuzzCase defaults);
  // normalize_case snaps nbytes to the variant's block / reduction grain.
  return fuzz::normalize_case(c);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace

SweepReport run_sweep(const SweepOptions& opt, std::ostream& out) {
  const auto t0 = std::chrono::steady_clock::now();
  SweepReport report;

  if (opt.closed_form_density) {
    closed_form_density_check(opt.pmax, &report);
    out << "closed forms: P=2.." << opt.pmax << " "
        << (report.closed_form_failures.empty() ? "ok" : "FAILED") << "\n";
  }

  // Whole-program tag-space lint: independent of any schedule, so once per
  // sweep covers every configuration below.
  report.tagspace = lint_tag_space();
  report.proofs += report.tagspace.checks;
  out << report.tagspace.to_string() << "\n";

  const std::vector<int> plist =
      opt.plist.empty() ? default_plist(opt.pmax) : opt.plist;
  VerifyOptions vopt;
  vopt.eager_thresholds = opt.eager_thresholds;

  for (const int P : plist) {
    std::uint64_t p_cases = 0, p_failures = 0;
    for (const Variant v : fuzz::all_variants()) {
      if (opt.only && *opt.only != v) continue;
      if (fuzz::fit_ranks(v, P) != P) continue;  // structural requirement
      const std::vector<int> roots = roots_for(P, opt.all_roots_upto);
      const bool rootless = fuzz::is_rootless(v);
      for (const std::uint64_t nbytes : opt.sizes) {
        for (const int root : roots) {
          if (rootless && root != roots.front()) continue;
          std::vector<HierShape> shapes{{}};
          if (is_hier(v)) shapes = hier_shapes(P);
          for (const HierShape& shape : shapes) {
          FuzzCase c = sweep_case(v, P, root, nbytes);
          if (is_hier(v)) {
            c.node_sizes = shape.node_sizes;
            c.use_tuned_ring = shape.tuned;
            c = fuzz::normalize_case(std::move(c));
          }
          const CaseResult res = verify_case(c, vopt);
          const auto vi = static_cast<std::size_t>(c.variant);
          ++report.cases;
          ++p_cases;
          ++report.per_variant_cases[vi];
          report.schedules_ops += res.total_ops;
          // Properties checked per case: lint, match, deadlock freedom per
          // threshold, buffer safety, coverage, redundancy, transfers, plus
          // the rotation / eager-bound / shm-pool proofs where they ran.
          report.proofs += 4 + opt.eager_thresholds.size() +
                           (res.dataflow_checked ? 1 : 0) +
                           (res.reduce_flow_checked ? 1 : 0) +
                           (res.rotation_checked ? 1 : 0) +
                           (res.eager_bounds_checked ? 1 : 0) +
                           (res.shm_checked ? 1 : 0);
          auto failed_with = [&res](const char* prefix) {
            for (const std::string& f : res.failures) {
              if (f.rfind(prefix, 0) == 0) return true;
            }
            return false;
          };
          if (res.rotation_checked) {
            ++report.rotation_cases;
            report.rotation_steps += res.rotation_steps;
            if (failed_with("rotation:")) ++report.rotation_failures;
          }
          if (res.eager_bounds_checked) {
            ++report.eager_bound_cases;
            if (failed_with("bounds: rank")) ++report.eager_bound_failures;
          }
          if (res.shm_checked) {
            ++report.shm_cases;
            if (failed_with("bounds: shm")) ++report.shm_failures;
          }
          if (!res.ok) {
            ++report.failures;
            ++p_failures;
            ++report.per_variant_failures[vi];
            if (report.failed.size() < 32) report.failed.push_back(res);
            out << "FAIL " << res.summary() << "\n";
          } else if (opt.verbose) {
            out << "  ok " << res.summary() << "\n";
          }
          }
        }
      }
    }
    out << "P=" << P << ": " << p_cases << " case(s), " << p_failures
        << " failure(s)\n";
  }

  report.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

void write_verify_json(const std::string& path, const SweepOptions& opt,
                       const SweepReport& report) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream f(path);
  BSB_REQUIRE(f.good(), "write_verify_json: cannot open output path");

  f << "{\n";
  f << "  \"schema\": \"bsb-verify-v1\",\n";
  f << "  \"pmax\": " << opt.pmax << ",\n";
  f << "  \"sizes\": [";
  for (std::size_t i = 0; i < opt.sizes.size(); ++i) {
    f << (i ? ", " : "") << opt.sizes[i];
  }
  f << "],\n";
  f << "  \"eager_thresholds\": [";
  for (std::size_t i = 0; i < opt.eager_thresholds.size(); ++i) {
    f << (i ? ", " : "") << opt.eager_thresholds[i];
  }
  f << "],\n";
  f << "  \"cases\": " << report.cases << ",\n";
  f << "  \"failures\": " << report.failures << ",\n";
  f << "  \"proofs\": " << report.proofs << ",\n";
  f << "  \"schedule_ops\": " << report.schedules_ops << ",\n";
  f << "  \"closed_form_failures\": [";
  for (std::size_t i = 0; i < report.closed_form_failures.size(); ++i) {
    f << (i ? ", " : "") << '"' << json_escape(report.closed_form_failures[i])
      << '"';
  }
  f << "],\n";
  f << "  \"paper\": {\"p8_native\": " << core::native_ring_transfers(8)
    << ", \"p8_tuned\": " << core::tuned_ring_transfers(8)
    << ", \"p10_native\": " << core::native_ring_transfers(10)
    << ", \"p10_tuned\": " << core::tuned_ring_transfers(10) << "},\n";
  f << "  \"family\": {\"p8_blocked_rs\": "
    << core::blocked_reduce_scatter_transfers(8)
    << ", \"p8_allreduce_native\": " << core::allreduce_rsag_native_transfers(8)
    << ", \"p8_allreduce_tuned\": " << core::allreduce_rsag_tuned_transfers(8)
    << ", \"p10_blocked_rs\": " << core::blocked_reduce_scatter_transfers(10)
    << ", \"p10_allreduce_native\": "
    << core::allreduce_rsag_native_transfers(10)
    << ", \"p10_allreduce_tuned\": "
    << core::allreduce_rsag_tuned_transfers(10) << "},\n";
  const std::uint64_t big = std::uint64_t{1} << 20;
  f << "  \"hier\": {\"l8_inter_native\": "
    << core::hier_inter_transfers(8, big, false)
    << ", \"l8_inter_tuned\": " << core::hier_inter_transfers(8, big, true)
    << ", \"l10_inter_native\": " << core::hier_inter_transfers(10, big, false)
    << ", \"l10_inter_tuned\": " << core::hier_inter_transfers(10, big, true)
    << "},\n";
  f << "  \"passes\": {\n";
  f << "    \"rotation\": {\"cases\": " << report.rotation_cases
    << ", \"failures\": " << report.rotation_failures
    << ", \"steps\": " << report.rotation_steps << "},\n";
  f << "    \"tagspace\": {\"ok\": "
    << (report.tagspace.ok ? "true" : "false")
    << ", \"base_tags\": " << report.tagspace.base_tags
    << ", \"contexts\": " << report.tagspace.contexts
    << ", \"checks\": " << report.tagspace.checks
    << ", \"max_remapped\": " << report.tagspace.max_remapped
    << ", \"witnesses\": [";
  for (std::size_t i = 0; i < report.tagspace.witnesses.size(); ++i) {
    f << (i ? ", " : "") << '"' << json_escape(report.tagspace.witnesses[i])
      << '"';
  }
  f << "]},\n";
  f << "    \"bounds\": {\"eager_cases\": " << report.eager_bound_cases
    << ", \"eager_failures\": " << report.eager_bound_failures
    << ", \"shm_cases\": " << report.shm_cases
    << ", \"shm_failures\": " << report.shm_failures << "}\n";
  f << "  },\n";
  f << "  \"per_variant\": {";
  bool first = true;
  for (const Variant v : fuzz::all_variants()) {
    const auto vi = static_cast<std::size_t>(v);
    if (report.per_variant_cases[vi] == 0) continue;
    f << (first ? "" : ", ") << "\n    \"" << fuzz::to_string(v)
      << "\": {\"cases\": " << report.per_variant_cases[vi]
      << ", \"failures\": " << report.per_variant_failures[vi] << "}";
    first = false;
  }
  f << "\n  },\n";
  f << "  \"failed\": [";
  for (std::size_t i = 0; i < report.failed.size(); ++i) {
    f << (i ? ", " : "") << "\n    {\"config\": \""
      << json_escape(describe(report.failed[i].config)) << "\", \"failures\": [";
    const auto& fails = report.failed[i].failures;
    for (std::size_t j = 0; j < fails.size(); ++j) {
      f << (j ? ", " : "") << '"' << json_escape(fails[j]) << '"';
    }
    f << "]}";
  }
  f << (report.failed.empty() ? "]" : "\n  ]") << ",\n";
  f << "  \"elapsed_seconds\": " << report.elapsed_seconds << "\n";
  f << "}\n";
  BSB_REQUIRE(f.good(), "write_verify_json: write failed");
}

}  // namespace bsb::verify
