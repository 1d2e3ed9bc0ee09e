// bsb-perfbench: the measuring half of the repository benchmark. It builds
// one workload's inputs from --seed, sets the workload up several times,
// runs a closed loop of requests for --seconds, checks every output, and
// prints raw records on stdout; perfbench/run.py turns them into metrics.
//
//   bsb-perfbench --workload W --seed N --seconds S --trace 0|1
//
// Output records, one per line:
//   setup <seconds>                            one per set-up repetition
//   req <class> <latency_ns> <work> <ok> <traced> <barrier_skew_ns>
//   count <name> <integer>
//   value <name> <number>
//   check <0|1> <what>                         post-run output checks
//   point <P> <nbytes> <iters> <tuned_makespan> <native_makespan>
//   span <id> <parent|-1> <name> <t0_ns> <t1_ns>  (only with --trace 1)
//
// Every workload has two cost-homogeneous request classes, 0 = long and
// 1 = medium, cycled in a fixed order. With --trace 1, whole cycles
// alternate between traced and untraced, so one run yields both the
// per-layer spans and the overhead of recording them.
#include <sys/resource.h>
#include <pthread.h>
#include <sched.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bsbutil/error.hpp"
#include "bsbutil/rng.hpp"
#include "bsbutil/units.hpp"
#include "coll/schedule_cache.hpp"
#include "comm/topology.hpp"
#include "core/bcast.hpp"
#include "core/icoll.hpp"
#include "core/transfer_analysis.hpp"
#include "fuzz/case.hpp"
#include "fuzz/runner.hpp"
#include "mpisim/progress.hpp"
#include "mpisim/thread_comm.hpp"
#include "mpisim/world.hpp"
#include "netsim/costmodel.hpp"
#include "netsim/replay.hpp"
#include "trace/coverage.hpp"
#include "trace/match.hpp"
#include "trace/record.hpp"
#include "verify/conformance.hpp"
#include "verify/equiv.hpp"
#include "verify/hb.hpp"
#include "verify/lint.hpp"
#include "verify/verifier.hpp"

namespace {

using namespace bsb;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_t0 = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_t0)
      .count();
}

// ---------------------------------------------------------------------------
// Spans. Each thread appends to its own log; a span's parent is whatever span
// was open on the same thread when it began. Logs are printed after the run.

enum SpanName : std::uint8_t {
  kFigsRequest,
  kTraceRecord,
  kTraceReplicate,
  kTraceMatch,
  kNetsimReplay,
  kVerifyCase,
  kTraceCoverage,
  kVerifyHb,
  kVerifyRotation,
  kVerifyBounds,
  kThreadsRequest,
  kMpisimBarrier,
  kMpisimBcast,
  kMpisimIbcastStart,
  kMpisimWait,
  kCollCompilePlan,
};

constexpr const char* kSpanNames[] = {
    "figs.request",   "trace.record",    "trace.replicate",
    "trace.match",    "netsim.replay",   "verify.case",
    "trace.coverage", "verify.hb",       "verify.rotation",
    "verify.bounds",  "threads.request", "mpisim.barrier",
    "mpisim.bcast",   "mpisim.ibcast_start", "mpisim.wait",
    "coll.compile_plan",
};

struct Span {
  SpanName name;
  std::int64_t parent;  // index into the same log, -1 for a root span
  std::int64_t t0, t1;
};

struct SpanLog {
  int id = 0;       // distinguishes logs in printed span ids
  bool on = false;  // record spans now (toggled per request cycle)
  std::vector<Span> spans;
  std::vector<std::int64_t> open;  // stack of open span indices
};

thread_local SpanLog* t_log = nullptr;

class Scope {
 public:
  explicit Scope(SpanName name) {
    if (t_log == nullptr || !t_log->on) return;
    log_ = t_log;
    idx_ = static_cast<std::int64_t>(log_->spans.size());
    const std::int64_t parent = log_->open.empty() ? -1 : log_->open.back();
    log_->open.push_back(idx_);
    log_->spans.push_back(Span{name, parent, now_ns(), 0});
  }
  ~Scope() {
    if (log_ == nullptr) return;
    log_->spans[static_cast<std::size_t>(idx_)].t1 = now_ns();
    log_->open.pop_back();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_ = nullptr;
  std::int64_t idx_ = -1;
};

void print_spans(const SpanLog& log) {
  const std::int64_t base = static_cast<std::int64_t>(log.id) << 40;
  for (std::size_t i = 0; i < log.spans.size(); ++i) {
    const Span& s = log.spans[i];
    std::printf("span %lld %lld %s %lld %lld\n",
                static_cast<long long>(base + static_cast<std::int64_t>(i)),
                static_cast<long long>(s.parent < 0 ? -1 : base + s.parent),
                kSpanNames[s.name], static_cast<long long>(s.t0),
                static_cast<long long>(s.t1));
  }
}

// ---------------------------------------------------------------------------
// Shared plumbing.

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

struct Request {
  int cls = 0;
  std::int64_t latency_ns = 0;
  double work = 0;
  bool ok = false;
  bool traced = false;
  std::int64_t skew_ns = 0;
};

/// A request is traced when tracing is on and it belongs to an odd cycle,
/// so traced and untraced requests interleave class by class.
bool traced_request(const Options& opt, std::size_t k, std::size_t cycle_len) {
  return opt.trace && (k / cycle_len) % 2 == 1;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// The CPUs the process may run on, read once at start-up.
const std::vector<int> g_cpus = allowed_cpus();

/// Pin the calling thread to the i-th allowed CPU (cyclically).
void pin_self(std::size_t i) {
  if (g_cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(g_cpus[i % g_cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Fisher-Yates with the repository's SplitMix64 (identical on every
/// standard library, unlike std::shuffle).
template <class T>
void shuffle(std::vector<T>& v, SplitMix64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

void print_request(const Request& r) {
  std::printf("req %d %lld %.17g %d %d %lld\n", r.cls,
              static_cast<long long>(r.latency_ns), r.work, r.ok ? 1 : 0,
              r.traced ? 1 : 0, static_cast<long long>(r.skew_ns));
}

double peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

constexpr int kSetupRepeats = 4;  // one per CPU of a 4-vCPU machine

// ---------------------------------------------------------------------------
// paper_figs: netsim replay of the paper's Fig 6b / Fig 8 points through
// core::bcast, 2 back-to-back iterations per request.

constexpr int kFigIters = 2;

struct FigClass {
  int nranks;
  std::vector<std::uint64_t> sizes;
};

const std::array<FigClass, 2> kFigClasses = {{
    {64, {1 * MiB, 3 * MiB / 2, 2 * MiB}},                        // Fig 6b
    {129, {12288, 24576, 49152, 98304, 196608, 393216}},          // Fig 8
}};

std::uint64_t expected_bcast_msgs(int P, std::uint64_t nbytes, bool tuned) {
  return core::scatter_transfers(P, nbytes) +
         (tuned ? core::tuned_ring_transfers(P) : core::native_ring_transfers(P));
}

struct FigOutcome {
  bool ok = false;
  netsim::ReplayResult replay;
};

FigOutcome simulate_point(int P, std::uint64_t nbytes, int root, bool tuned) {
  core::BcastConfig cfg;
  cfg.use_tuned_ring = tuned;
  trace::Schedule base;
  {
    Scope s(kTraceRecord);
    base = trace::record_schedule(
        P, nbytes, [&](Comm& comm, std::span<std::byte> buf) {
          core::bcast(comm, buf, root, cfg);
        });
  }
  trace::Schedule full;
  {
    Scope s(kTraceReplicate);
    full = base.replicate(kFigIters);
  }
  trace::MatchResult m;
  {
    Scope s(kTraceMatch);
    m = trace::match_schedule(full);
  }
  FigOutcome out;
  {
    Scope s(kNetsimReplay);
    out.replay = netsim::replay_schedule(full, m, Topology::hornet(P),
                                         netsim::CostModel::hornet());
  }
  const std::uint64_t want = expected_bcast_msgs(P, nbytes, tuned);
  out.ok = base.total_sends() == want && out.replay.messages == kFigIters * want &&
           out.replay.makespan > 0;
  return out;
}

/// The points behind the paper's Fig 6-8 quantity, at root 0: tuned and
/// native makespans (run.py turns them into sim_tuned_gain), the exact
/// fluid-solver effort count, and the message-count checks.
void sim_gain_pass() {
  std::uint64_t recomputes = 0, msgs = 0;
  bool ok = true;
  for (const FigClass& fc : kFigClasses) {
    for (const std::uint64_t nbytes : fc.sizes) {
      const FigOutcome tuned = simulate_point(fc.nranks, nbytes, 0, true);
      const FigOutcome native = simulate_point(fc.nranks, nbytes, 0, false);
      ok = ok && tuned.ok && native.ok;
      std::printf("point %d %llu %d %.17g %.17g\n", fc.nranks,
                  static_cast<unsigned long long>(nbytes), kFigIters,
                  tuned.replay.makespan, native.replay.makespan);
      recomputes += tuned.replay.rate_recomputes + native.replay.rate_recomputes;
      msgs += tuned.replay.messages + native.replay.messages;
    }
  }
  std::printf("check %d sim_gain_pass message counts equal the closed forms\n",
              ok ? 1 : 0);
  std::printf("count sim_recomputes %llu\n",
              static_cast<unsigned long long>(recomputes));
  std::printf("count sim_msgs %llu\n", static_cast<unsigned long long>(msgs));
}

// ---------------------------------------------------------------------------
// verify_sweep: verify::verify_case on the scatter-ring native and tuned
// variants with rotating roots.

struct VerifyClass {
  int nranks;
  std::uint64_t nbytes;
  int roots_per_request;  // both variants are verified at each root
};

const std::array<VerifyClass, 2> kVerifyClasses = {{
    {513, 524288, 1},  // long: working set far beyond L2
    {129, 12288, 2},   // medium: working set fits in L2
}};

fuzz::FuzzCase verify_case_for(int cls, int root, bool tuned) {
  fuzz::FuzzCase c;
  c.variant = tuned ? fuzz::Variant::BcastScatterRingTuned
                    : fuzz::Variant::BcastScatterRingNative;
  c.nranks = kVerifyClasses[static_cast<std::size_t>(cls)].nranks;
  c.nbytes = kVerifyClasses[static_cast<std::size_t>(cls)].nbytes;
  c.root = root;
  return fuzz::normalize_case(c);
}

/// The passes verify::verify_case runs, called one by one through the
/// modules' public functions so each gets its own span. Lint and the
/// transfer-count conformance stay in the parent span's self time.
bool verify_case_traced(const fuzz::FuzzCase& c, std::uint64_t* ops) {
  Scope whole(kVerifyCase);
  const verify::VerifyOptions vopt;
  trace::Schedule sched;
  {
    Scope s(kTraceRecord);
    sched = trace::record_schedule(c.nranks, c.nbytes, fuzz::make_rank_body(c));
  }
  *ops = sched.total_ops();
  bool ok = verify::lint_schedule(sched).ok;
  trace::MatchResult m;
  {
    Scope s(kTraceMatch);
    m = trace::match_schedule(sched);
  }
  for (const std::uint64_t thr : vopt.eager_thresholds) {
    verify::HbReport hb;
    {
      Scope s(kVerifyHb);
      hb = verify::analyze_hb(sched, m, verify::HbOptions{thr});
    }
    ok = ok && !hb.deadlock && hb.races.empty();
    if (verify::eager_bound_checkable(c.variant)) {
      Scope s(kVerifyBounds);
      const std::vector<std::uint64_t> bound = verify::eager_peak_bounds(c, thr);
      for (std::size_t r = 0; r < bound.size() && r < hb.rank_eager_high_water.size();
           ++r) {
        ok = ok && hb.rank_eager_high_water[r] <= bound[r];
      }
    }
  }
  const verify::TransferExpectation expect = verify::expected_transfers(c);
  {
    Scope s(kTraceCoverage);
    trace::CoverageOptions copt;
    copt.initial = verify::initial_coverage(c);
    const trace::CoverageReport cov =
        trace::validate_coverage(sched, m, c.root, copt);
    ok = ok && cov.ok &&
         (!expect.redundant_bytes || cov.redundant_bytes == *expect.redundant_bytes);
  }
  ok = ok && (!expect.total_sends || sched.total_sends() == *expect.total_sends);
  if (verify::rotation_checkable(c.variant)) {
    Scope s(kVerifyRotation);
    ok = ok && verify::prove_rotation_equivalence(c, sched).ok;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Single-threaded closed loop (paper_figs, verify_sweep).

using RunOne = std::function<Request(int cls, std::size_t j, bool traced)>;

/// Pin the main thread for sub-case i (of `subs`) of request j of a class.
///
/// Host contention slows one vCPU at a time, for a fraction of a second to
/// seconds, so a single-case request is bimodal and a p50 sits on the cliff
/// between the modes. Each request therefore runs several sub-cases, each
/// on the next CPU, and its latency sums modes drawn independently. A
/// traced request and the untraced one before it use the same CPUs.
void pin_sub_case(std::size_t j, int i, int subs) {
  pin_self((j / 2) * static_cast<std::size_t>(subs) + static_cast<std::size_t>(i));
}

std::vector<Request> closed_loop(const Options& opt, const RunOne& run_one) {
  std::vector<Request> out;
  std::array<std::size_t, 2> per_class{};
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::size_t k = 0; now_ns() < deadline; ++k) {
    const int cls = static_cast<int>(k % 2);  // long, then medium
    const bool traced = traced_request(opt, k, 2);
    t_log->on = traced;
    const std::int64_t t0 = now_ns();
    Request r;
    try {
      r = run_one(cls, per_class[static_cast<std::size_t>(cls)]++, traced);
    } catch (const Error& e) {  // a failed request, counted as such
      std::cerr << "bsb-perfbench: request " << k << ": " << e.what() << "\n";
      r.ok = false;
    }
    r.latency_ns = now_ns() - t0;
    t_log->on = false;
    r.cls = cls;
    r.traced = traced;
    out.push_back(r);
  }
  return out;
}

void report(const std::vector<Request>& reqs) {
  for (const Request& r : reqs) print_request(r);
  std::printf("value peak_rss_kb %.17g\n", peak_rss_kb());
}

template <class Setup>
void timed_setups(const Options& opt, const Setup& setup) {
  for (int i = 0; i < kSetupRepeats; ++i) {
    pin_self(static_cast<std::size_t>(i));
    t_log->on = opt.trace;
    const std::int64_t t0 = now_ns();
    setup();
    std::printf("setup %.17g\n", static_cast<double>(now_ns() - t0) * 1e-9);
    t_log->on = false;
  }
}

void run_paper_figs(const Options& opt) {
  SplitMix64 rng(opt.seed);
  std::array<std::vector<std::uint64_t>, 2> sizes;
  std::array<bool, 2> tuned_first{};
  for (std::size_t c = 0; c < 2; ++c) {
    sizes[c] = kFigClasses[c].sizes;
    shuffle(sizes[c], rng);
    tuned_first[c] = rng.next_below(2) == 0;
  }
  // Warm-up: the largest point of each class, both variants.
  timed_setups(opt, [&] {
    for (const FigClass& fc : kFigClasses) {
      for (const bool tuned : {true, false}) {
        simulate_point(fc.nranks, fc.sizes.back(), 0, tuned);
      }
    }
  });
  // A request is one point, simulated tuned and native at one root.
  const auto reqs = closed_loop(opt, [&](int cls, std::size_t j, bool) {
    const auto c = static_cast<std::size_t>(cls);
    const std::uint64_t nbytes = sizes[c][j % sizes[c].size()];
    const int P = kFigClasses[c].nranks;
    const int root = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(P)));
    Scope s(kFigsRequest);
    Request r;
    r.ok = true;
    for (int i = 0; i < 2; ++i) {
      pin_sub_case(j, i, 2);
      const FigOutcome o = simulate_point(P, nbytes, root, (i == 0) == tuned_first[c]);
      r.ok = r.ok && o.ok;
      r.work += static_cast<double>(o.replay.messages);
    }
    return r;
  });
  report(reqs);
}

void run_verify_sweep(const Options& opt) {
  SplitMix64 rng(opt.seed);
  std::array<int, 2> root0{};
  std::array<bool, 2> tuned_first{};
  for (std::size_t c = 0; c < 2; ++c) {
    root0[c] = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(kVerifyClasses[c].nranks)));
    tuned_first[c] = rng.next_below(2) == 0;
  }
  timed_setups(opt, [&] {
    for (int cls = 0; cls < 2; ++cls) {
      for (const bool tuned : {true, false}) {
        verify::verify_case(verify_case_for(cls, 0, tuned));
      }
    }
  });
  // A request verifies both variants at the class's next roots.
  const auto reqs = closed_loop(opt, [&](int cls, std::size_t j, bool traced) {
    const auto c = static_cast<std::size_t>(cls);
    const int P = kVerifyClasses[c].nranks;
    const int roots = kVerifyClasses[c].roots_per_request;
    Request r;
    r.ok = true;
    for (int i = 0; i < 2 * roots; ++i) {
      pin_sub_case(j, i, 2 * roots);
      const int root = static_cast<int>(
          (static_cast<std::size_t>(root0[c]) + j * static_cast<std::size_t>(roots) +
           static_cast<std::size_t>(i / 2)) %
          static_cast<std::size_t>(P));
      const fuzz::FuzzCase fc = verify_case_for(cls, root, (i % 2 == 0) == tuned_first[c]);
      if (traced) {
        std::uint64_t ops = 0;
        r.ok = verify_case_traced(fc, &ops) && r.ok;
        r.work += static_cast<double>(ops);
      } else {
        const verify::CaseResult res = verify::verify_case(fc);
        r.ok = res.ok && r.ok;
        r.work += static_cast<double>(res.total_ops);
      }
    }
    return r;
  });
  report(reqs);
}

// ---------------------------------------------------------------------------
// threads_bcast / threads_ibcast: a World of 3 pinned rank threads; each
// request is one barrier plus a batch of back-to-back broadcasts with
// rotating roots, and every rank's buffer is checked against the root's
// seeded pattern.

constexpr int kRanks = 3;
constexpr int kBatch = 8;
constexpr int kInFlight = 4;  // ibcast requests started before wait_all_coll
constexpr int kPatterns = 4;  // distinct seeded patterns per class
constexpr int kWarmupRequests = 32;
constexpr std::array<std::uint64_t, 2> kThreadSizes = {576 * KiB, 96 * KiB};

core::BcastConfig threads_config() {
  core::BcastConfig cfg;
  cfg.min_procs_for_scatter = 2;  // P=3 takes the scatter + tuned-ring path
  cfg.use_tuned_ring = true;
  return cfg;
}

struct RankRecord {
  std::int64_t enter = 0, end = 0;
  bool ok = false;
};

struct ThreadsBench {
  bool nonblocking = false;
  std::uint64_t seed = 0;
  core::BcastConfig cfg = threads_config();
  // patterns[cls][i]: the root's seeded payload.
  std::array<std::vector<std::vector<std::byte>>, 2> patterns;
  // buffers[rank][slot], sized for the long class.
  std::vector<std::vector<std::vector<std::byte>>> buffers;

  ThreadsBench(bool nb, std::uint64_t s) : nonblocking(nb), seed(s) {
    for (std::size_t c = 0; c < 2; ++c) {
      for (int i = 0; i < kPatterns; ++i) {
        std::vector<std::byte> p(kThreadSizes[c]);
        fill_pattern(p, seed * 131 + c * kPatterns + static_cast<std::uint64_t>(i));
        patterns[c].push_back(std::move(p));
      }
    }
    buffers.assign(kRanks, std::vector<std::vector<std::byte>>(
                               kBatch, std::vector<std::byte>(kThreadSizes[0])));
  }

  static int root_of(std::uint64_t seed, std::size_t k, int slot) {
    return static_cast<int>((seed + k + static_cast<std::uint64_t>(slot)) %
                            kRanks);
  }

  const std::vector<std::byte>& pattern(std::size_t k, int slot) const {
    const std::size_t cls = k % 2;
    return patterns[cls][(k / 2 + static_cast<std::size_t>(slot)) % kPatterns];
  }

  /// One request on this rank: prepare buffers, barrier, batch, check.
  RankRecord request(mpisim::ThreadComm& comm, std::size_t k) {
    const int me = comm.rank();
    const std::uint64_t nbytes = kThreadSizes[k % 2];
    auto& bufs = buffers[static_cast<std::size_t>(me)];
    for (int s = 0; s < kBatch; ++s) {
      auto& b = bufs[static_cast<std::size_t>(s)];
      if (root_of(seed, k, s) == me) {
        std::memcpy(b.data(), pattern(k, s).data(), nbytes);
      } else {
        std::memset(b.data(), 0xA5, nbytes);
      }
    }
    RankRecord rec;
    Scope req(kThreadsRequest);
    rec.enter = now_ns();
    {
      Scope s(kMpisimBarrier);
      comm.barrier();
    }
    if (nonblocking) {
      for (int s0 = 0; s0 < kBatch; s0 += kInFlight) {
        std::array<mpisim::CollRequest, kInFlight> reqs;
        for (int i = 0; i < kInFlight; ++i) {
          const int s = s0 + i;
          Scope sp(kMpisimIbcastStart);
          reqs[static_cast<std::size_t>(i)] = core::ibcast(
              comm, std::span(bufs[static_cast<std::size_t>(s)].data(), nbytes),
              root_of(seed, k, s), cfg);
        }
        Scope sp(kMpisimWait);
        mpisim::wait_all_coll(reqs);
      }
    } else {
      for (int s = 0; s < kBatch; ++s) {
        Scope sp(kMpisimBcast);
        core::bcast(comm,
                    std::span(bufs[static_cast<std::size_t>(s)].data(), nbytes),
                    root_of(seed, k, s), cfg);
      }
    }
    rec.end = now_ns();
    rec.ok = true;
    for (int s = 0; s < kBatch; ++s) {
      rec.ok = rec.ok && std::memcmp(bufs[static_cast<std::size_t>(s)].data(),
                                     pattern(k, s).data(), nbytes) == 0;
    }
    return rec;
  }

  /// Rank r runs on allowed CPU 1+r; the main thread keeps CPU 0.
  static void pin(int rank) { pin_self(static_cast<std::size_t>(1 + rank)); }

  /// Run requests 0..n-1 of the cycle on every rank (warm-up).
  void warm_up(mpisim::World& world, std::size_t n) {
    world.run([&](mpisim::ThreadComm& comm) {
      pin(comm.rank());
      for (std::size_t k = 0; k < n; ++k) request(comm, k);
    });
  }
};

void run_threads(const Options& opt, bool nonblocking) {
  const core::BcastConfig cfg = threads_config();
  for (const std::uint64_t n : kThreadSizes) {
    if (core::choose_bcast_algorithm(n, kRanks, cfg) !=
        core::BcastAlgorithm::ScatterRingTuned) {
      throw std::runtime_error("threads config does not select the tuned ring");
    }
  }
  ThreadsBench bench(nonblocking, opt.seed);
  std::unique_ptr<mpisim::World> world;
  timed_setups(opt, [&] {
    coll::process_schedule_cache().clear();
    world.reset();
    world = std::make_unique<mpisim::World>(kRanks);
    if (nonblocking) {
      for (const std::uint64_t n : kThreadSizes) {
        Scope s(kCollCompilePlan);
        core::bcast_plan(kRanks, n, 0, cfg);
      }
    }
    bench.warm_up(*world, 2 * kWarmupRequests);
  });

  pin_self(0);  // the main thread leaves CPUs 1..3 to the ranks
  std::vector<SpanLog> logs(kRanks);
  for (int r = 0; r < kRanks; ++r) logs[static_cast<std::size_t>(r)].id = 1 + r;
  std::vector<std::vector<RankRecord>> records(kRanks);
  std::atomic<std::size_t> stop_at{SIZE_MAX};
  const coll::ScheduleCache::Stats cache0 = coll::process_schedule_cache().stats();
  const std::uint64_t msgs0 = world->total_msgs();
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(opt.seconds * 1e9);
  world->run([&](mpisim::ThreadComm& comm) {
    const int me = comm.rank();
    bench.pin(me);
    t_log = &logs[static_cast<std::size_t>(me)];
    auto& mine = records[static_cast<std::size_t>(me)];
    for (std::size_t k = 0;; ++k) {
      // Rank 0 decides before entering request k's barrier; the barrier
      // publishes the decision to the others.
      if (me == 0 && now_ns() >= deadline) stop_at.store(k);
      t_log->on = traced_request(opt, k, 2);
      // The request's own barrier orders this load after rank 0's store.
      RankRecord rec = bench.request(comm, k);
      t_log->on = false;
      if (k >= stop_at.load()) break;
      mine.push_back(rec);
    }
    t_log = nullptr;
  });
  const coll::ScheduleCache::Stats cache1 = coll::process_schedule_cache().stats();

  // The stop decision is made before the barrier but read after the whole
  // request, so the last request ran on every rank and is discarded.
  std::vector<Request> reqs;
  const std::size_t n = records[0].size();
  for (const auto& r : records) {
    if (r.size() != n) throw std::runtime_error("ranks ran different request counts");
  }
  for (std::size_t k = 0; k < n; ++k) {
    std::int64_t enter_max = INT64_MIN, enter_min = INT64_MAX, end_max = INT64_MIN;
    bool ok = true;
    for (const auto& r : records) {
      enter_max = std::max(enter_max, r[k].enter);
      enter_min = std::min(enter_min, r[k].enter);
      end_max = std::max(end_max, r[k].end);
      ok = ok && r[k].ok;
    }
    Request q;
    q.cls = static_cast<int>(k % 2);
    q.latency_ns = end_max - enter_max;
    q.work = static_cast<double>(kBatch) *
             static_cast<double>(kThreadSizes[k % 2]) / 1e6;  // payload MB
    q.ok = ok;
    q.traced = traced_request(opt, k, 2);
    q.skew_ns = enter_max - enter_min;
    reqs.push_back(q);
  }
  // Counts cover every request run, the discarded last one included.
  const std::uint64_t bcasts = (n + 1) * kBatch;
  std::printf("count mpisim_msgs %llu\n",
              static_cast<unsigned long long>(world->total_msgs() - msgs0));
  std::printf("count mpisim_bcasts %llu\n", static_cast<unsigned long long>(bcasts));
  std::printf("count cache_hits %llu\n",
              static_cast<unsigned long long>(cache1.hits - cache0.hits));
  std::printf("count cache_misses %llu\n",
              static_cast<unsigned long long>(cache1.misses - cache0.misses));
  report(reqs);
  for (const SpanLog& log : logs) print_spans(log);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have[4] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v, have[0] = true;
    } else if (k == "--seed") {
      o.seed = std::stoull(v), have[1] = true;
    } else if (k == "--seconds") {
      o.seconds = std::stod(v), have[2] = true;
    } else if (k == "--trace") {
      o.trace = v == "1", have[3] = true;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (argc % 2 != 1 || !(have[0] && have[1] && have[2] && have[3]) ||
      !(o.seconds > 0)) {
    throw std::invalid_argument(
        "usage: bsb-perfbench --workload W --seed N --seconds S --trace 0|1");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Heap retention, as bsb-verify configures it: freed schedule and match
  // arrays stay in the heap, so later requests do not re-fault their pages.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, -1);
#endif
  try {
    const Options opt = parse(argc, argv);
    SpanLog main_log;
    t_log = &main_log;
    if (opt.workload == "paper_figs") {
      run_paper_figs(opt);
    } else if (opt.workload == "verify_sweep") {
      run_verify_sweep(opt);
    } else if (opt.workload == "threads_bcast") {
      run_threads(opt, false);
    } else if (opt.workload == "threads_ibcast") {
      run_threads(opt, true);
    } else {
      throw std::invalid_argument("unknown workload " + opt.workload);
    }
    t_log = &main_log;
    t_log->on = false;
    sim_gain_pass();
    print_spans(main_log);
  } catch (const std::exception& e) {
    std::cerr << "bsb-perfbench: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
