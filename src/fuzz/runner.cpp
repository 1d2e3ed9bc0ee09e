#include "fuzz/runner.hpp"

#include <mutex>
#include <vector>

#include "bsbutil/error.hpp"
#include "bsbutil/rng.hpp"
#include "coll/reduce_ops.hpp"
#include "comm/chunks.hpp"
#include "mpisim/thread_comm.hpp"
#include "mpisim/world.hpp"
#include "registry/registry.hpp"
#include "trace/match.hpp"
#include "trace/record.hpp"

namespace bsb::fuzz {

RankBody make_rank_body(const FuzzCase& c, Sabotage sabotage) {
  return [c, sabotage, program = registry::collective(c.variant).program](
             Comm& comm, std::span<std::byte> buf) {
    program(c, sabotage, comm, buf);
  };
}

namespace {

/// The byte-exact post-reduction buffer every rank's checked region must
/// match: chunk c's elements folded in ring arrival order (or the
/// recursive-doubling tree for TreeFold). Computed once per case, not per
/// rank — the fold is O(P) per element.
std::vector<std::byte> reduce_expected_buffer(const FuzzCase& c) {
  const std::uint64_t ps = oracle_seed(c);
  const std::uint64_t es = coll::elem_bytes(c.red_dtype);
  std::vector<std::byte> expected(c.nbytes);
  if (c.nbytes == 0) return expected;
  if (registry::collective(c.variant).oracle == registry::Oracle::TreeFold) {
    for (std::uint64_t off = 0; off < c.nbytes; off += es) {
      coll::rd_reduced_value(c.red_op, c.red_dtype, ps, c.nranks, off / es,
                             std::span<std::byte>(expected).subspan(off, es));
    }
    return expected;
  }
  const ChunkLayout layout(c.nbytes, c.nranks);
  for (int chunk = 0; chunk < c.nranks; ++chunk) {
    const std::uint64_t lo = layout.disp(chunk);
    const std::uint64_t hi = lo + layout.count(chunk);
    for (std::uint64_t off = lo; off < hi; off += es) {
      coll::ring_reduced_value(c.red_op, c.red_dtype, ps, c.nranks, c.root,
                               chunk, off / es,
                               std::span<std::byte>(expected).subspan(off, es));
    }
  }
  return expected;
}

/// Record the schedule, match it, and check its total and per-rank transfer
/// counts against the registry's closed forms with the same checker as
/// bsb-verify. Returns the discrepancies (empty = clean) and the schedule's
/// total send count via `total_sends`.
std::string symbolic_check(const FuzzCase& c, const RankBody& body,
                           std::uint64_t* total_sends) {
  trace::Schedule sched;
  try {
    sched = trace::record_schedule(c.nranks, c.nbytes, body);
  } catch (const Error& e) {
    return std::string("recording failed: ") + e.what();
  }
  *total_sends = sched.total_sends();
  try {
    (void)trace::match_schedule(sched);
  } catch (const Error& e) {
    return std::string("schedule does not match up: ") + e.what();
  }
  std::vector<std::string> failures;
  registry::check_transfers(sched, registry::collective(c.variant).expect(c),
                            &failures);
  std::string err;
  for (const std::string& f : failures) err += f + "; ";
  if (!err.empty()) err += "[" + describe(c) + "]";
  return err;
}

}  // namespace

bool sabotage_applies(const FuzzCase& c, Sabotage sabotage) noexcept {
  return sabotage != Sabotage::None &&
         registry::collective(c.variant).sabotage == sabotage;
}

RunOutcome run_case(const FuzzCase& c, Sabotage sabotage) {
  RunOutcome out;
  const RankBody body = make_rank_body(c, sabotage);

  // Phase 1: symbolic. Catches miscounted/unpairable schedules without
  // spending watchdog time, which keeps the self-test and shrinking fast.
  // Skipped for empty buffers (nothing to record offsets against).
  std::uint64_t expected_msgs = 0;
  bool have_expected = false;
  if (c.nbytes > 0) {
    const std::string err = symbolic_check(c, body, &expected_msgs);
    have_expected = true;
    if (!err.empty()) {
      out.ok = false;
      out.detail = err;
      return out;
    }
  }

  // Phase 2: threaded execution with fault injection + byte oracle.
  mpisim::WorldConfig wc;
  wc.eager_threshold = c.eager_threshold;
  wc.watchdog_seconds = c.watchdog_seconds;
  wc.faults = c.faults;
  mpisim::World world(c.nranks, wc);

  // Pre-collective contents: the bytes the variant's ownership contract
  // says each rank contributes (at their home offsets), garbage elsewhere;
  // under a fold oracle every byte is a live contribution. The fold oracles
  // compare each rank's `reduced` bytes against the byte-exact expected
  // buffer, shared read-only by all ranks.
  const registry::Collective& k = registry::collective(c.variant);
  const bool fold = k.oracle != registry::Oracle::Pattern;
  const std::uint64_t ps = oracle_seed(c);
  const std::vector<Interval> owned = registry::held_bytes(k.initial, c);
  std::vector<Interval> checked;
  std::vector<std::byte> expected;
  if (fold) {
    checked = registry::held_bytes(k.reduced, c);
    expected = reduce_expected_buffer(c);
  }
  std::mutex fail_mu;
  std::string first_fail;
  auto report_fail = [&](int rank, std::uint64_t bad, std::uint64_t total) {
    const std::lock_guard<std::mutex> lk(fail_mu);
    if (first_fail.empty()) {
      first_fail = "oracle mismatch at rank " + std::to_string(rank) +
                   " byte " + std::to_string(bad) + " of " +
                   std::to_string(total);
    }
  };
  try {
    world.run([&](mpisim::ThreadComm& comm) {
      const auto me = static_cast<std::size_t>(comm.rank());
      std::vector<std::byte> buf(c.nbytes);
      if (fold) {
        coll::fill_contributions(c.red_dtype, ps, comm.rank(), 0, buf);
      } else {
        fill_pattern(buf, ~ps);
        const Interval iv = owned[me];
        fill_pattern(std::span<std::byte>(buf).subspan(iv.lo, iv.length()), ps,
                     iv.lo);
      }
      body(comm, buf);
      if (fold) {
        for (std::uint64_t i = checked[me].lo; i < checked[me].hi; ++i) {
          if (buf[i] != expected[i]) {
            report_fail(comm.rank(), i, buf.size());
            break;
          }
        }
      } else {
        const std::size_t bad = first_pattern_mismatch(buf, ps);
        if (bad != buf.size()) report_fail(comm.rank(), bad, buf.size());
      }
    });
  } catch (const Error& e) {
    out.ok = false;
    out.detail = std::string("execution failed: ") + e.what() + " [" +
                 describe(c) + "]";
    return out;
  }
  out.messages = world.total_msgs();
  if (!first_fail.empty()) {
    out.ok = false;
    out.detail = first_fail + " [" + describe(c) + "]";
    return out;
  }

  // Phase 3: the schedule the threads actually ran must move exactly the
  // message count the recording predicted (faults may reorder and reshape
  // protocols, never add or drop messages).
  if (have_expected && out.messages != expected_msgs) {
    out.ok = false;
    out.detail = "threaded run moved " + std::to_string(out.messages) +
                 " msgs, recorded schedule has " +
                 std::to_string(expected_msgs) + " [" + describe(c) + "]";
  }
  return out;
}

}  // namespace bsb::fuzz
