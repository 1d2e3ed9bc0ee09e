#include "verify/lint.hpp"

#include <algorithm>

#include "bsbutil/error.hpp"
#include "coll/hier/topology.hpp"
#include "coll/tags.hpp"
#include "comm/comm.hpp"
#include "registry/registry.hpp"

namespace bsb::verify {

namespace {

using trace::Op;
using trace::OpKind;

/// Cap on recorded findings: schedules reach millions of ops at large P and
/// a broken generator would otherwise flood the report.
constexpr std::size_t kMaxFindings = 64;

bool known_base_tag(int base) {
  // Registry-driven, so a tag added to coll/tags.hpp (and kAllBaseTags) is
  // accepted here automatically. The old range check silently excluded
  // kHierFanout, flagging every hier fan-out message as unregistered.
  for (const int t : coll::tags::kAllBaseTags) {
    if (base == t) return true;
  }
  return false;
}

}  // namespace

const char* to_string(LintSeverity s) noexcept {
  return s == LintSeverity::Error ? "error" : "warning";
}

std::string LintReport::to_string() const {
  std::string out;
  for (const LintFinding& f : findings) {
    out += "  [";
    out += verify::to_string(f.severity);
    out += "] ";
    if (f.rank >= 0) {
      out += "rank " + std::to_string(f.rank);
      if (f.op >= 0) out += " op " + std::to_string(f.op);
      out += ": ";
    }
    out += f.what + "\n";
  }
  return out;
}

LintReport lint_schedule(const trace::Schedule& sched) {
  LintReport report;
  std::size_t dropped = 0;

  auto add = [&](LintSeverity sev, int rank, int op, std::string what) {
    if (sev == LintSeverity::Error) report.ok = false;
    if (report.findings.size() >= kMaxFindings) {
      ++dropped;
      return;
    }
    report.findings.push_back({sev, rank, op, std::move(what)});
  };

  auto check_tag = [&](int rank, int op, int tag, const char* half) {
    if (tag < 0) {
      add(LintSeverity::Error, rank, op,
          std::string(half) + " tag " + std::to_string(tag) + " is negative");
      return;
    }
    const int context = tag / (kMaxUserTag + 1);
    const int base = tag % (kMaxUserTag + 1);
    // Valid: a registered per-algorithm tag, either bare or namespaced by a
    // SubComm context, or a SubComm dissemination-barrier tag (base ==
    // kMaxUserTag shifted into a context >= 1 namespace).
    const bool ok = known_base_tag(base) || (context >= 1 && base == kMaxUserTag);
    if (!ok) {
      add(LintSeverity::Warning, rank, op,
          std::string(half) + " tag " + std::to_string(tag) +
              " (context " + std::to_string(context) + ", base " +
              std::to_string(base) +
              ") is outside the registered tag space of coll/tags.hpp");
    }
  };

  std::vector<std::uint64_t> barriers(static_cast<std::size_t>(sched.nranks), 0);

  for (int r = 0; r < sched.nranks; ++r) {
    const auto& list = sched.ops[r];
    for (int i = 0; i < static_cast<int>(list.size()); ++i) {
      const Op& op = list[i];
      if (op.kind == OpKind::Barrier) {
        ++barriers[static_cast<std::size_t>(r)];
        continue;
      }
      if (op.has_send()) {
        if (op.dst == r) {
          add(LintSeverity::Error, r, i,
              "self-send (blocking send to own rank deadlocks under "
              "rendezvous)");
        }
        check_tag(r, i, op.send_tag, "send");
        if (op.send_bytes == 0) ++report.zero_byte_sends;
        if (op.send_off != trace::kForeignOffset &&
            op.send_off + op.send_bytes > sched.nbytes) {
          add(LintSeverity::Error, r, i,
              "send interval [" + std::to_string(op.send_off) + "," +
                  std::to_string(op.send_off + op.send_bytes) +
                  ") exceeds the " + std::to_string(sched.nbytes) +
                  "-byte collective buffer");
        }
      }
      if (op.has_recv()) {
        if (op.src == r) {
          add(LintSeverity::Error, r, i,
              "self-receive (blocking receive from own rank can never be "
              "matched by this schedule shape)");
        }
        check_tag(r, i, op.recv_tag, "recv");
        if (op.recv_off != trace::kForeignOffset &&
            op.recv_off + op.recv_cap > sched.nbytes) {
          add(LintSeverity::Error, r, i,
              "receive interval [" + std::to_string(op.recv_off) + "," +
                  std::to_string(op.recv_off + op.recv_cap) +
                  ") exceeds the " + std::to_string(sched.nbytes) +
                  "-byte collective buffer");
        }
      }
    }
  }

  for (int r = 1; r < sched.nranks; ++r) {
    if (barriers[static_cast<std::size_t>(r)] != barriers[0]) {
      add(LintSeverity::Error, r, -1,
          "rank executes " + std::to_string(barriers[static_cast<std::size_t>(r)]) +
              " barrier(s) but rank 0 executes " + std::to_string(barriers[0]) +
              " (collective-order mismatch)");
    }
  }

  if (report.zero_byte_sends > 0) {
    add(LintSeverity::Warning, -1, -1,
        std::to_string(report.zero_byte_sends) +
            " zero-byte message(s) (legal, but pure overhead — the enclosed "
            "ring ships these for trailing empty chunks)");
  }
  if (dropped > 0) {
    report.findings.push_back(
        {LintSeverity::Warning, -1, -1,
         std::to_string(dropped) + " further finding(s) suppressed"});
  }
  return report;
}

// --- Symbolic resource-safety bounds -----------------------------------

bool eager_bound_checkable(fuzz::Variant v) noexcept {
  return registry::collective(v).eager_bound != nullptr;
}

std::vector<std::uint64_t> eager_peak_bounds(const fuzz::FuzzCase& c,
                                             std::uint64_t eager_threshold) {
  const registry::Collective& k = registry::collective(c.variant);
  BSB_ASSERT(k.eager_bound != nullptr,
             "eager_peak_bounds: variant has no closed form");
  return k.eager_bound(c, eager_threshold);
}

ShmPoolReport verify_shm_pool(const trace::Schedule& sched,
                              const std::vector<int>& node_sizes, int root) {
  ShmPoolReport rep;
  BSB_REQUIRE(!node_sizes.empty(), "verify_shm_pool: empty node shape");
  const hier::Topology topo(node_sizes);
  BSB_REQUIRE(topo.nranks() == sched.nranks,
              "verify_shm_pool: node shape / schedule rank count mismatch");

  auto witness = [&](std::string what) {
    rep.ok = false;
    if (rep.witnesses.size() < 8) rep.witnesses.push_back(std::move(what));
  };

  const int N = topo.num_nodes();
  std::vector<std::uint64_t> node_bytes(static_cast<std::size_t>(N), 0);
  std::vector<std::uint64_t> node_msgs(static_cast<std::size_t>(N), 0);

  for (int r = 0; r < sched.nranks; ++r) {
    for (const Op& op : sched.ops[static_cast<std::size_t>(r)]) {
      if (!op.has_send() || op.send_tag != coll::tags::kHierFanout) continue;
      ++rep.fanout_msgs;
      const int node = topo.node_of(r);
      if (topo.node_of(op.dst) != node) {
        witness("fan-out message " + std::to_string(r) + " -> " +
                std::to_string(op.dst) + " crosses nodes " +
                std::to_string(node) + " -> " +
                std::to_string(topo.node_of(op.dst)) +
                ": the shm channel cannot carry it");
        continue;
      }
      if (topo.leader_of(node, root) != r) {
        witness("fan-out message from rank " + std::to_string(r) +
                " on node " + std::to_string(node) +
                ", which is led by rank " +
                std::to_string(topo.leader_of(node, root)));
      }
      node_bytes[static_cast<std::size_t>(node)] += op.send_bytes;
      ++node_msgs[static_cast<std::size_t>(node)];
    }
  }

  for (int n = 0; n < N; ++n) {
    const std::uint64_t want_msgs =
        static_cast<std::uint64_t>(topo.node_size(n)) - 1;
    const std::uint64_t want_bytes = want_msgs * sched.nbytes;
    rep.bound_node_bytes = std::max(rep.bound_node_bytes, want_bytes);
    rep.peak_node_bytes =
        std::max(rep.peak_node_bytes, node_bytes[static_cast<std::size_t>(n)]);
    if (node_msgs[static_cast<std::size_t>(n)] != want_msgs) {
      witness("node " + std::to_string(n) + " moves " +
              std::to_string(node_msgs[static_cast<std::size_t>(n)]) +
              " single-copy fan-out message(s); the pool is provisioned "
              "for node_size - 1 = " +
              std::to_string(want_msgs));
    } else if (node_bytes[static_cast<std::size_t>(n)] != want_bytes) {
      witness("node " + std::to_string(n) + " moves " +
              std::to_string(node_bytes[static_cast<std::size_t>(n)]) +
              " fan-out byte(s); the pool is provisioned for (node_size - "
              "1) * nbytes = " +
              std::to_string(want_bytes));
    }
  }
  return rep;
}

}  // namespace bsb::verify
