#include "verify/equiv.hpp"

#include <vector>

#include "bsbutil/error.hpp"
#include "comm/chunks.hpp"
#include "fuzz/runner.hpp"
#include "registry/registry.hpp"
#include "trace/match.hpp"
#include "trace/record.hpp"

namespace bsb::verify {

namespace {

using trace::Op;

void diverge(RotationReport* rep, int rank, int step, const char* field,
             std::string detail) {
  if (!rep->ok) return;  // keep the first (minimal) witness
  rep->ok = false;
  rep->divergence = RotationDivergence{rank, step, field, std::move(detail)};
}

std::string vs(std::uint64_t plan_v, std::uint64_t fresh_v) {
  return "rotated plan has " + std::to_string(plan_v) + ", fresh schedule has " +
         std::to_string(fresh_v);
}

std::string vs_int(int plan_v, int fresh_v) {
  return "rotated plan has " + std::to_string(plan_v) + ", fresh schedule has " +
         std::to_string(fresh_v);
}

/// Compare one rank's already-rotated plan ops against the fresh recording.
/// Returns false on the first divergence (recorded into `rep`).
bool compare_rank(int rank, const std::vector<Op>& rotated,
                  const std::vector<Op>& fresh, RotationReport* rep) {
  if (rotated.size() != fresh.size()) {
    diverge(rep, rank, -1, "steps",
            vs(rotated.size(), fresh.size()) + " step(s)");
    return false;
  }
  for (int i = 0; i < static_cast<int>(rotated.size()); ++i) {
    const Op& p = rotated[static_cast<std::size_t>(i)];
    const Op& f = fresh[static_cast<std::size_t>(i)];
    ++rep->steps_compared;
    if (p.kind != f.kind) {
      diverge(rep, rank, i, "kind",
              std::string("rotated plan has ") + trace::to_string(p.kind) +
                  ", fresh schedule has " + trace::to_string(f.kind));
      return false;
    }
    if (p.has_send()) {
      if (p.dst != f.dst) {
        diverge(rep, rank, i, "dst", vs_int(p.dst, f.dst));
        return false;
      }
      if (p.send_tag != f.send_tag) {
        diverge(rep, rank, i, "tag", vs_int(p.send_tag, f.send_tag));
        return false;
      }
      if (p.send_bytes != f.send_bytes) {
        diverge(rep, rank, i, "send_bytes", vs(p.send_bytes, f.send_bytes));
        return false;
      }
      if (p.send_off != f.send_off) {
        diverge(rep, rank, i, "send_off", vs(p.send_off, f.send_off));
        return false;
      }
    }
    if (p.has_recv()) {
      if (p.src != f.src) {
        diverge(rep, rank, i, "src", vs_int(p.src, f.src));
        return false;
      }
      if (p.recv_tag != f.recv_tag) {
        diverge(rep, rank, i, "tag", vs_int(p.recv_tag, f.recv_tag));
        return false;
      }
      if (p.recv_cap != f.recv_cap) {
        diverge(rep, rank, i, "recv_cap", vs(p.recv_cap, f.recv_cap));
        return false;
      }
      if (p.recv_off != f.recv_off) {
        diverge(rep, rank, i, "recv_off", vs(p.recv_off, f.recv_off));
        return false;
      }
    }
  }
  return true;
}

/// Edge-by-edge matching comparison: both schedules already proved
/// op-list-equal, so their deterministic matchings must agree too; this
/// materializes the claim for small P instead of deriving it.
void compare_matchings(const trace::Schedule& rotated,
                       const trace::Schedule& fresh, RotationReport* rep) {
  trace::MatchResult mp, mf;
  try {
    mp = trace::match_schedule(rotated);
    mf = trace::match_schedule(fresh);
  } catch (const trace::ScheduleError& e) {
    diverge(rep, -1, -1, "matching",
            std::string("matching failed: ") + e.what());
    return;
  }
  rep->full_graph_checked = true;
  if (mp.msgs.size() != mf.msgs.size()) {
    diverge(rep, -1, -1, "matching",
            vs(mp.msgs.size(), mf.msgs.size()) + " matched message(s)");
    return;
  }
  for (std::size_t k = 0; k < mp.msgs.size(); ++k) {
    const trace::MatchedMsg& a = mp.msgs[k];
    const trace::MatchedMsg& b = mf.msgs[k];
    if (a.src != b.src || a.dst != b.dst || a.tag != b.tag ||
        a.bytes != b.bytes || a.src_op != b.src_op || a.dst_op != b.dst_op) {
      diverge(rep, a.dst, a.dst_op, "matching",
              "matched edge #" + std::to_string(k) + " differs: plan " +
                  std::to_string(a.src) + "->" + std::to_string(a.dst) +
                  " tag " + std::to_string(a.tag) + " (" +
                  std::to_string(a.bytes) + " B), fresh " +
                  std::to_string(b.src) + "->" + std::to_string(b.dst) +
                  " tag " + std::to_string(b.tag) + " (" +
                  std::to_string(b.bytes) + " B)");
      return;
    }
  }
}

}  // namespace

std::string RotationReport::to_string() const {
  if (ok) {
    return "rotation-equivalence proven over " +
           std::to_string(steps_compared) + " step(s), plan fingerprint " +
           std::to_string(plan_fingerprint) +
           (full_graph_checked ? " (matchings compared edge-by-edge)" : "");
  }
  std::string out = "rotated root-0 plan (fingerprint " +
                    std::to_string(plan_fingerprint) +
                    ") diverges from the fresh schedule";
  if (divergence) {
    out += " at rank " + std::to_string(divergence->rank);
    if (divergence->step >= 0) {
      out += " step " + std::to_string(divergence->step);
    }
    out += " field '" + divergence->field + "': " + divergence->detail;
  }
  return out;
}

bool rotation_checkable(fuzz::Variant v) noexcept {
  return registry::collective(v).rotation;
}

RotationReport prove_rotation_equivalence(const fuzz::FuzzCase& c,
                                          const trace::Schedule& fresh) {
  RotationReport rep;
  const int P = c.nranks;
  const int root = c.root;
  BSB_REQUIRE(fresh.nranks == P,
              "prove_rotation_equivalence: schedule/case rank mismatch");

  // The root-0 program of the same configuration: this is exactly what the
  // schedule cache compiles once and rotates forever after.
  fuzz::FuzzCase canonical = c;
  canonical.root = 0;
  const fuzz::RankBody body = fuzz::make_rank_body(canonical);

  const bool full_graph = P <= kFullGraphMaxP;
  trace::Schedule rotated;
  if (full_graph) {
    rotated.nranks = P;
    rotated.nbytes = fresh.nbytes;
    rotated.ops.resize(static_cast<std::size_t>(P));
  }

  trace::Fingerprint fp(P, c.nbytes);
  std::vector<std::byte> scratch(c.nbytes);
  std::vector<Op> ops;
  for (int rel = 0; rel < P; ++rel) {
    ops.clear();
    trace::RecordingComm recorder(rel, P, scratch, ops);
    body(recorder, scratch);
    fp.add_rank(ops);
    const int abs = abs_rank(rel, root, P);
    std::vector<Op> rotated_ops = trace::rotate_ops(ops, root, P);
    if (!compare_rank(abs, rotated_ops, fresh.ops[static_cast<std::size_t>(abs)],
                      &rep)) {
      // Partial: the fingerprint still names the prefix proven.
      rep.plan_fingerprint = fp.value();
      return rep;
    }
    if (full_graph) {
      rotated.ops[static_cast<std::size_t>(abs)] = std::move(rotated_ops);
    }
  }
  rep.plan_fingerprint = fp.value();
  if (full_graph) compare_matchings(rotated, fresh, &rep);
  return rep;
}

RotationReport prove_plan_rotation(const coll::Plan& plan, int root,
                                   const trace::Schedule& fresh) {
  RotationReport rep;
  rep.plan_fingerprint = plan.fingerprint();
  const int P = plan.nranks;
  BSB_REQUIRE(fresh.nranks == P,
              "prove_plan_rotation: schedule/plan rank mismatch");
  const trace::Schedule rotated = trace::rotate_schedule(plan, root);
  for (int r = 0; r < P; ++r) {
    if (!compare_rank(r, rotated.ops[static_cast<std::size_t>(r)],
                      fresh.ops[static_cast<std::size_t>(r)], &rep)) {
      return rep;
    }
  }
  if (P <= kFullGraphMaxP) compare_matchings(rotated, fresh, &rep);
  return rep;
}

}  // namespace bsb::verify
