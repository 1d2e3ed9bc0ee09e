// Tests for the static schedule verifier: happens-before deadlock proofs
// with minimal-cycle witnesses, buffer-race detection, lint, conformance
// closed forms, and agreement with the threaded fuzz oracle.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bsbutil/rng.hpp"
#include "coll/plan.hpp"
#include "coll/scatter_binomial.hpp"
#include "coll/tags.hpp"
#include "comm/chunks.hpp"
#include "comm/vchunks.hpp"
#include "core/transfer_analysis.hpp"
#include "fuzz/case.hpp"
#include "fuzz/runner.hpp"
#include "mpisim/thread_comm.hpp"
#include "mpisim/world.hpp"
#include "trace/coverage.hpp"
#include "trace/match.hpp"
#include "trace/record.hpp"
#include "trace/reduce_flow.hpp"
#include "trace/schedule.hpp"
#include "verify/conformance.hpp"
#include "verify/equiv.hpp"
#include "verify/hb.hpp"
#include "verify/lint.hpp"
#include "verify/tagspace.hpp"
#include "verify/verifier.hpp"

namespace bsb::verify {
namespace {

using trace::Op;
using trace::OpKind;
using trace::Schedule;

Op send_op(int dst, int tag, std::uint64_t bytes, std::uint64_t off) {
  Op op;
  op.kind = OpKind::Send;
  op.dst = dst;
  op.send_tag = tag;
  op.send_bytes = bytes;
  op.send_off = off;
  return op;
}

Op recv_op(int src, int tag, std::uint64_t cap, std::uint64_t off) {
  Op op;
  op.kind = OpKind::Recv;
  op.src = src;
  op.recv_tag = tag;
  op.recv_cap = cap;
  op.recv_off = off;
  return op;
}

Op sendrecv_op(int dst, std::uint64_t send_bytes, std::uint64_t send_off,
               int src, std::uint64_t recv_cap, std::uint64_t recv_off) {
  Op op;
  op.kind = OpKind::SendRecv;
  op.dst = dst;
  op.send_tag = coll::tags::kRingAllgather;
  op.send_bytes = send_bytes;
  op.send_off = send_off;
  op.src = src;
  op.recv_tag = coll::tags::kRingAllgather;
  op.recv_cap = recv_cap;
  op.recv_off = recv_off;
  return op;
}

Schedule two_rank_schedule(std::uint64_t nbytes = 256) {
  Schedule s;
  s.nranks = 2;
  s.nbytes = nbytes;
  s.ops.resize(2);
  return s;
}

// --------------------------------------------------- happens-before proofs

TEST(Hb, ReceiveReceiveCycleYieldsMinimalWitness) {
  // Both ranks receive before sending: the canonical deadlock. The witness
  // must walk the 2-cycle and name each blocked op with rank/op provenance.
  Schedule s = two_rank_schedule();
  const int t = coll::tags::kRingAllgather;
  s.ops[0] = {recv_op(1, t, 128, 128), send_op(1, t, 128, 0)};
  s.ops[1] = {recv_op(0, t, 128, 0), send_op(0, t, 128, 128)};
  const auto m = trace::match_schedule(s);
  const HbReport hb = analyze_hb(s, m, HbOptions{0});
  EXPECT_FALSE(hb.ok);
  EXPECT_TRUE(hb.deadlock);
  ASSERT_EQ(hb.cycle.size(), 2u);
  EXPECT_EQ(hb.cycle[0].rank, 0);
  EXPECT_EQ(hb.cycle[0].op, 0);
  EXPECT_EQ(hb.cycle[1].rank, 1);
  EXPECT_EQ(hb.cycle[1].op, 0);
  EXPECT_NE(hb.diagnostics.find("wait-for cycle"), std::string::npos);
}

TEST(Hb, HeadToHeadSendsDeadlockOnlyUnderRendezvous) {
  // Send-then-receive on both sides: classic eager/rendezvous split. With
  // eager buffering both sends complete at post; under pure rendezvous
  // each send waits for a receive that is never posted.
  Schedule s = two_rank_schedule();
  const int t = coll::tags::kRingAllgather;
  s.ops[0] = {send_op(1, t, 128, 0), recv_op(1, t, 128, 128)};
  s.ops[1] = {send_op(0, t, 128, 128), recv_op(0, t, 128, 0)};
  const auto m = trace::match_schedule(s);

  const HbReport rndv = analyze_hb(s, m, HbOptions{0});
  EXPECT_TRUE(rndv.deadlock);
  ASSERT_EQ(rndv.cycle.size(), 2u);
  EXPECT_NE(rndv.diagnostics.find("rendezvous send"), std::string::npos);

  const HbReport eager = analyze_hb(s, m, HbOptions{128});
  EXPECT_TRUE(eager.ok);
  EXPECT_FALSE(eager.deadlock);
  EXPECT_EQ(eager.eager_msgs, 2u);
  // The high-water mark is the greedy (fastest-draining) interleaving's
  // residency — here one send is buffered while the other goes direct, so
  // any execution needs at least 128 bytes of eager capacity.
  EXPECT_EQ(eager.eager_high_water_bytes, 128u);
}

TEST(Hb, EagerReleaseNeverUnderflows) {
  // Rank 0 receives before it sends; the greedy order completes that
  // receive before rank 1's send half is accounted. A naive release would
  // underflow the buffered-bytes counter; the per-message state must not.
  Schedule s = two_rank_schedule();
  const int t = coll::tags::kRingAllgather;
  s.ops[0] = {recv_op(1, t, 128, 128), send_op(1, t, 128, 0)};
  s.ops[1] = {send_op(0, t, 128, 128), recv_op(0, t, 128, 0)};
  const auto m = trace::match_schedule(s);
  const HbReport hb = analyze_hb(s, m, HbOptions{1024});
  EXPECT_TRUE(hb.ok);
  EXPECT_LE(hb.eager_high_water_bytes, 256u);
  EXPECT_GE(hb.eager_high_water_bytes, 128u);
}

TEST(Hb, OverlappingSendRecvHalvesAreARace) {
  Schedule s = two_rank_schedule();
  s.ops[0] = {sendrecv_op(1, 128, 0, 1, 128, 64)};   // send [0,128) recv [64,192)
  s.ops[1] = {sendrecv_op(0, 128, 128, 0, 128, 0)};  // disjoint: clean
  const auto m = trace::match_schedule(s);
  const HbReport hb = analyze_hb(s, m, HbOptions{0});
  EXPECT_FALSE(hb.ok);
  EXPECT_FALSE(hb.deadlock);  // it runs; the bytes are just unsafe
  ASSERT_EQ(hb.races.size(), 1u);
  EXPECT_EQ(hb.races[0].rank, 0);
  EXPECT_EQ(hb.races[0].op, 0);
}

TEST(Hb, BarrierCountMismatchIsReported) {
  Schedule s = two_rank_schedule();
  Op b;
  b.kind = OpKind::Barrier;
  s.ops[0] = {b};
  s.ops[1] = {};
  const auto m = trace::match_schedule(s);
  const HbReport hb = analyze_hb(s, m, HbOptions{0});
  EXPECT_TRUE(hb.deadlock);
  EXPECT_NE(hb.diagnostics.find("barrier"), std::string::npos);
}

// ------------------------------------------------------------------- lint

TEST(Lint, SelfSendIsAnError) {
  Schedule s = two_rank_schedule();
  s.ops[0] = {send_op(0, coll::tags::kBcastBinomial, 4, 0)};
  const LintReport rep = lint_schedule(s);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.to_string().find("self"), std::string::npos);
}

TEST(Lint, OutOfBoundsIntervalIsAnError) {
  Schedule s = two_rank_schedule(64);
  const int t = coll::tags::kBcastBinomial;
  s.ops[0] = {send_op(1, t, 128, 0)};  // past nbytes=64
  s.ops[1] = {recv_op(0, t, 128, 0)};
  EXPECT_FALSE(lint_schedule(s).ok);
}

TEST(Lint, UnknownTagIsOnlyAWarning) {
  Schedule s = two_rank_schedule();
  s.ops[0] = {send_op(1, 9999, 4, 0)};
  s.ops[1] = {recv_op(0, 9999, 4, 0)};
  const LintReport rep = lint_schedule(s);
  EXPECT_TRUE(rep.ok);  // warnings do not invalidate
  EXPECT_FALSE(rep.findings.empty());
}

TEST(Lint, NegativeTagIsAnError) {
  Schedule s = two_rank_schedule();
  s.ops[0] = {send_op(1, -3, 4, 0)};
  s.ops[1] = {recv_op(0, -3, 4, 0)};
  EXPECT_FALSE(lint_schedule(s).ok);
}

// ---------------------------------------------------------- orchestration

TEST(Verifier, BrokenScheduleFailsWithDeadlockWitness) {
  Schedule s = two_rank_schedule();
  const int t = coll::tags::kRingAllgather;
  s.ops[0] = {recv_op(1, t, 128, 128), send_op(1, t, 128, 0)};
  s.ops[1] = {recv_op(0, t, 128, 0), send_op(0, t, 128, 128)};
  VerifyOptions opt;
  opt.check_dataflow = false;
  const CaseResult res = verify_schedule(s, 0, opt);
  EXPECT_FALSE(res.ok);
  ASSERT_FALSE(res.failures.empty());
  EXPECT_EQ(res.failures[0].rfind("deadlock", 0), 0u) << res.failures[0];
  EXPECT_NE(res.failures[0].find("rank 0 op 0"), std::string::npos);
  EXPECT_NE(res.failures[0].find("rank 1 op 0"), std::string::npos);
}

TEST(Verifier, PaperAnchorCountsAtP8AndP10) {
  // The paper's table: 56 -> 44 transfers at P=8, 90 -> 75 at P=10. The
  // recorded allgather schedules must carry exactly these message counts.
  for (const auto& [P, native, tuned] :
       {std::tuple{8, 56u, 44u}, std::tuple{10, 90u, 75u}}) {
    fuzz::FuzzCase c;
    c.nranks = P;
    c.nbytes = 4096;
    c.root = 0;
    c.variant = fuzz::Variant::AllgatherRingNative;
    const CaseResult nat = verify_case(c);
    EXPECT_TRUE(nat.ok) << nat.summary();
    EXPECT_EQ(nat.total_sends, native);
    c.variant = fuzz::Variant::AllgatherRingTuned;
    const CaseResult tun = verify_case(c);
    EXPECT_TRUE(tun.ok) << tun.summary();
    EXPECT_EQ(tun.total_sends, tuned);
    EXPECT_EQ(tun.redundant_bytes, 0u);
  }
}

TEST(Verifier, TunedBcastShipsZeroRedundantBytesNativeShipsTheExcess) {
  fuzz::FuzzCase c;
  c.nranks = 8;
  c.nbytes = 524288;
  c.root = 5;
  c.variant = fuzz::Variant::BcastScatterRingTuned;
  const CaseResult tuned = verify_case(c);
  EXPECT_TRUE(tuned.ok) << tuned.summary();
  EXPECT_EQ(tuned.redundant_bytes, 0u);
  EXPECT_EQ(tuned.total_sends, core::scatter_transfers(8, c.nbytes) + 44u);

  c.variant = fuzz::Variant::BcastScatterRingNative;
  const CaseResult native = verify_case(c);
  EXPECT_TRUE(native.ok) << native.summary();
  EXPECT_GT(native.redundant_bytes, 0u);
  EXPECT_EQ(native.total_sends, core::scatter_transfers(8, c.nbytes) + 56u);
}

TEST(Verifier, SabotagedRingPlanIsRejected) {
  fuzz::FuzzCase c;
  c.variant = fuzz::Variant::AllgatherRingTuned;
  c.nranks = 10;
  c.nbytes = 10240;
  const CaseResult res = verify_case(c, VerifyOptions{},
                                     fuzz::Sabotage::RingPlanStepOffByOne);
  EXPECT_FALSE(res.ok);
}

TEST(Verifier, DefaultPlistIsDenseThenSampled) {
  const auto plist = default_plist(4096);
  for (int p = 2; p <= 17; ++p) {
    EXPECT_NE(std::find(plist.begin(), plist.end(), p), plist.end());
  }
  EXPECT_EQ(plist.back(), 4096);
  for (std::size_t i = 1; i < plist.size(); ++i) {
    EXPECT_LT(plist[i - 1], plist[i]);  // sorted, unique
  }
  EXPECT_EQ(default_plist(64).back(), 64);
}

// -------------------------------------------------- reduce-flow hand cases

trace::ReduceFlowOptions whole_buffer_flow(int nranks, std::uint64_t nbytes) {
  trace::ReduceFlowOptions opt;
  opt.nchunks = 1;
  opt.chunk_bytes = nbytes;
  opt.required.assign(static_cast<std::size_t>(nranks), {0, 1});
  return opt;
}

TEST(ReduceFlow, AdjacentPartialExchangeCompletes) {
  // The recursive-doubling step at P=2: both ranks swap their whole-buffer
  // partials; each merge is adjacent and lands exactly at the full circle.
  Schedule s = two_rank_schedule();
  const int t = coll::tags::kRingAllgather;
  s.ops[0] = {send_op(1, t, 256, 0), recv_op(1, t, 256, 0)};
  s.ops[1] = {recv_op(0, t, 256, 0), send_op(0, t, 256, 0)};
  const auto m = trace::match_schedule(s);
  const trace::ReduceFlowReport rep =
      trace::validate_reduce_flow(s, m, whole_buffer_flow(2, 256));
  EXPECT_TRUE(rep.ok) << rep.diagnostics;
  EXPECT_EQ(rep.redundant_bytes, 0u);
  EXPECT_EQ(rep.redundant_msgs, 0u);
}

TEST(ReduceFlow, CompleteOverCompleteIsCountedRedundant) {
  // After the exchange both ranks are complete; a third delivery re-ships a
  // fully reduced chunk to a rank that already holds it. That is priced as
  // redundancy (the generalized paper excess), not an error.
  Schedule s = two_rank_schedule();
  const int t = coll::tags::kRingAllgather;
  s.ops[0] = {send_op(1, t, 256, 0), recv_op(1, t, 256, 0),
              recv_op(1, t, 256, 0)};
  s.ops[1] = {recv_op(0, t, 256, 0), send_op(0, t, 256, 0),
              send_op(0, t, 256, 0)};
  const auto m = trace::match_schedule(s);
  const trace::ReduceFlowReport rep =
      trace::validate_reduce_flow(s, m, whole_buffer_flow(2, 256));
  EXPECT_TRUE(rep.ok) << rep.diagnostics;
  EXPECT_EQ(rep.redundant_bytes, 256u);
  EXPECT_EQ(rep.redundant_msgs, 1u);
}

TEST(ReduceFlow, PartialOverCompleteIsAnError) {
  // Rank 1 ships its lone contribution twice. The first merge completes
  // rank 0; folding the second (still partial) copy in would double-count
  // rank 1's contribution — the validator must reject it.
  Schedule s = two_rank_schedule();
  const int t = coll::tags::kRingAllgather;
  s.ops[0] = {recv_op(1, t, 256, 0), recv_op(1, t, 256, 0)};
  s.ops[1] = {send_op(0, t, 256, 0), send_op(0, t, 256, 0)};
  const auto m = trace::match_schedule(s);
  const trace::ReduceFlowReport rep =
      trace::validate_reduce_flow(s, m, whole_buffer_flow(2, 256));
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.diagnostics.find("already complete"), std::string::npos)
      << rep.diagnostics;
}

TEST(ReduceFlow, NonAdjacentPartialMergeIsAnError) {
  // P=4: rank 2's contribution span {2} is not adjacent to rank 0's {0}
  // on the relative circle — folding them would leave a hole at rank 1.
  Schedule s;
  s.nranks = 4;
  s.nbytes = 256;
  s.ops.resize(4);
  const int t = coll::tags::kRingAllgather;
  s.ops[0] = {recv_op(2, t, 256, 0)};
  s.ops[2] = {send_op(0, t, 256, 0)};
  const auto m = trace::match_schedule(s);
  const trace::ReduceFlowReport rep =
      trace::validate_reduce_flow(s, m, whole_buffer_flow(4, 256));
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.diagnostics.find("adjacent"), std::string::npos)
      << rep.diagnostics;
}

TEST(ReduceFlow, MissingRequiredRangeIsAnError) {
  // A schedule with no messages leaves every rank partial; the required
  // ranges demand fully reduced chunks.
  Schedule s = two_rank_schedule();
  const auto m = trace::match_schedule(s);
  const trace::ReduceFlowReport rep =
      trace::validate_reduce_flow(s, m, whole_buffer_flow(2, 256));
  EXPECT_FALSE(rep.ok);
}

// ------------------------------------------------ reduction-family proofs

TEST(Verifier, FamilyAnchorCountsAtP8AndP10) {
  // The generalized analogue of the paper's 56 -> 44 / 90 -> 75 table:
  // blocked reduce_scatter 68 / 105, allreduce 124 -> 112 / 195 -> 180.
  for (const auto& [P, rs, ar_native, ar_tuned] :
       {std::tuple{8, 68u, 124u, 112u}, std::tuple{10, 105u, 195u, 180u}}) {
    fuzz::FuzzCase c;
    c.nranks = P;
    c.nbytes = static_cast<std::uint64_t>(P) * 512;
    c.root = 0;

    c.variant = fuzz::Variant::ReduceScatterBlocks;
    const CaseResult blocks = verify_case(c);
    EXPECT_TRUE(blocks.ok) << blocks.summary();
    EXPECT_EQ(blocks.total_sends, rs);
    EXPECT_EQ(blocks.redundant_bytes, 0u);

    c.variant = fuzz::Variant::AllreduceRsAgNative;
    const CaseResult native = verify_case(c);
    EXPECT_TRUE(native.ok) << native.summary();
    EXPECT_EQ(native.total_sends, ar_native);
    EXPECT_GT(native.redundant_bytes, 0u);  // the enclosed allgather excess

    c.variant = fuzz::Variant::AllreduceRsAgTuned;
    const CaseResult tuned = verify_case(c);
    EXPECT_TRUE(tuned.ok) << tuned.summary();
    EXPECT_EQ(tuned.total_sends, ar_tuned);
    EXPECT_EQ(tuned.redundant_bytes, 0u);
  }
}

TEST(Verifier, DoubleFinalSabotageYieldsRedundancyWitness) {
  fuzz::FuzzCase c;
  c.variant = fuzz::Variant::ReduceScatterBlocks;
  c.nranks = 8;
  c.nbytes = 8192;
  c.root = 3;
  const auto sab = fuzz::Sabotage::ReduceScatterDoubleFinal;
  const CaseResult res = verify_case(c, VerifyOptions{}, sab);
  EXPECT_FALSE(res.ok);
  EXPECT_GT(res.redundant_msgs, 0u);
  bool has_redundancy_witness = false;
  for (const std::string& f : res.failures) {
    if (f.rfind("redundancy", 0) == 0) has_redundancy_witness = true;
  }
  EXPECT_TRUE(has_redundancy_witness) << res.summary();
  // The threaded oracle agrees: values are right, counts are not.
  const fuzz::RunOutcome oracle = fuzz::run_case(c, sab);
  EXPECT_FALSE(oracle.ok);
}

TEST(Verifier, SkewedAllgathervMatchesClosedFormsAndTunedIsWasteFree) {
  for (const std::uint64_t skew : {0x1111u, 0xabcdu, 0x7u}) {
    fuzz::FuzzCase c;
    c.nranks = 10;
    c.nbytes = 12288;
    c.root = 4;
    c.skew_seed = skew;

    c.variant = fuzz::Variant::AllgathervRingNative;
    const TransferExpectation want = expected_transfers(c);
    const CaseResult native = verify_case(c);
    EXPECT_TRUE(native.ok) << native.summary();
    EXPECT_EQ(native.total_sends, 90u);  // message count is size-oblivious
    ASSERT_TRUE(want.redundant_bytes.has_value());
    EXPECT_EQ(native.redundant_bytes, *want.redundant_bytes);
    EXPECT_GT(native.redundant_bytes, 0u);

    c.variant = fuzz::Variant::AllgathervRingTuned;
    const CaseResult tuned = verify_case(c);
    EXPECT_TRUE(tuned.ok) << tuned.summary();
    EXPECT_EQ(tuned.total_sends, 75u);  // same plan as the uniform ring
    EXPECT_EQ(tuned.redundant_bytes, 0u);
  }
}

// ----------------------------------------------- oracle/verifier agreement

TEST(Verifier, AgreesWithThreadedOracleOn150SeededCases) {
  // The verifier and the fuzz runner read the same registry row, so what
  // keeps the closed forms honest is the runner's threaded byte oracle
  // (pattern or reduction fold): on seeded random configurations a schedule
  // the verifier proves must also deliver the right bytes, and vice versa.
  // (150 draws: the smallest round count covering all 23 variants.)
  fuzz::GeneratorOptions gen;
  gen.max_ranks = 16;
  gen.max_bytes = 64 * 1024;
  gen.faults = false;  // faults perturb timing, not schedules
  std::set<fuzz::Variant> seen;
  for (std::uint64_t i = 0; i < 150; ++i) {
    const fuzz::FuzzCase c = fuzz::sample_case(20260806, i, gen);
    seen.insert(c.variant);
    const fuzz::RunOutcome oracle = fuzz::run_case(c);
    const CaseResult sym = verify_case(c);
    EXPECT_EQ(oracle.ok, sym.ok)
        << describe(c) << "\noracle: " << oracle.detail
        << "\nverifier: " << sym.summary();
  }
  // The agreement sweep must actually exercise the ownership-aware
  // family, not just the bcast/allgather paths.
  for (const auto v :
       {fuzz::Variant::ReduceScatterRing, fuzz::Variant::ReduceScatterBlocks,
        fuzz::Variant::AllreduceRsAgNative, fuzz::Variant::AllreduceRsAgTuned,
        fuzz::Variant::AllreduceRecursiveDoubling,
        fuzz::Variant::AllgathervRingNative,
        fuzz::Variant::AllgathervRingTuned,
        fuzz::Variant::AllgatherBruckHier,
        fuzz::Variant::BcastHier,
        fuzz::Variant::IbcastConcurrent}) {
    EXPECT_TRUE(seen.count(v)) << fuzz::to_string(v);
  }
}

/// Bytes of `layout` covered by the chunk indices in `chunks`.
template <typename Layout>
IntervalSet weigh(const IntervalSet& chunks, const Layout& layout) {
  IntervalSet out;
  for (const Interval iv : chunks.parts()) {
    const auto first = static_cast<int>(iv.lo);
    const std::uint64_t lo = layout.disp(first);
    out.insert(
        {lo, lo + layout.range_count(first, static_cast<int>(iv.length()))});
  }
  return out;
}

TEST(Contract, PostScatterOwnershipIsWhatScatterBinomialLeaves) {
  // These variants run over binomial-scatter output. Their registry contract
  // must state exactly the chunks coll::scatter_binomial leaves on each
  // rank (recorded over one byte per chunk), weighed by the variant's
  // uniform or skewed layout.
  for (const auto v : {fuzz::Variant::AllgatherRingTuned,
                       fuzz::Variant::AllgatherRecursiveDoubling,
                       fuzz::Variant::AllgathervRingNative,
                       fuzz::Variant::AllgathervRingTuned}) {
    for (int P = 2; P <= 33; ++P) {
      if (fuzz::fit_ranks(v, P) != P) continue;
      for (int root = 0; root < P; ++root) {
        fuzz::FuzzCase c;
        c.variant = v;
        c.nranks = P;
        c.root = root;
        c.nbytes = 97 * static_cast<std::uint64_t>(P) + 13;
        c.skew_seed = 0x5eedu + static_cast<std::uint64_t>(P);
        c = fuzz::normalize_case(c);
        const Schedule sched = trace::record_schedule(
            P, static_cast<std::uint64_t>(P),
            [&](Comm& comm, std::span<std::byte> buf) {
              coll::scatter_binomial(comm, buf, root,
                                     ChunkLayout(buf.size(), P));
            });
        trace::CoverageOptions copt;
        copt.require_full_final_coverage = false;
        const trace::CoverageReport held = trace::validate_coverage(
            sched, trace::match_schedule(sched), root, copt);
        ASSERT_TRUE(held.ok) << held.diagnostics;
        const std::vector<IntervalSet> contract = initial_coverage(c);
        for (int r = 0; r < P; ++r) {
          const auto ri = static_cast<std::size_t>(r);
          const IntervalSet bytes =
              fuzz::is_allgatherv(v)
                  ? weigh(held.final_coverage[ri],
                          VarLayout(skewed_counts(P, c.nbytes, c.skew_seed)))
                  : weigh(held.final_coverage[ri], ChunkLayout(c.nbytes, P));
          EXPECT_TRUE(bytes == contract[ri])
              << describe(c) << " rank " << r << ": scatter leaves "
              << bytes.to_string() << ", contract says "
              << contract[ri].to_string();
        }
      }
    }
  }
}

TEST(Verifier, AgreesWithOracleUnderSabotage) {
  // Under the off-by-one ring-plan sabotage both the threaded oracle and
  // the static verifier must reject the tuned variants (and both must
  // stay green where the sabotage does not apply).
  for (const auto v : {fuzz::Variant::AllgatherRingTuned,
                       fuzz::Variant::BcastScatterRingTuned,
                       fuzz::Variant::AllreduceRsAgTuned,
                       fuzz::Variant::AllgathervRingTuned,
                       fuzz::Variant::BcastBinomial}) {
    fuzz::FuzzCase c;
    c.variant = v;
    c.nranks = 12;
    c.nbytes = 12288;
    const auto sab = fuzz::Sabotage::RingPlanStepOffByOne;
    const fuzz::RunOutcome oracle = fuzz::run_case(c, sab);
    const CaseResult sym = verify_case(c, VerifyOptions{}, sab);
    EXPECT_EQ(oracle.ok, sym.ok)
        << fuzz::to_string(v) << ": oracle " << oracle.detail << " vs "
        << sym.summary();
  }
}

// -------------------------------------------------- rotation equivalence

bool has_failure_prefix(const CaseResult& res, const std::string& pre) {
  for (const std::string& f : res.failures) {
    if (f.rfind(pre, 0) == 0) return true;
  }
  return false;
}

TEST(Rotation, ProvenForEveryCheckableVariantAcrossAllRoots) {
  for (const auto v :
       {fuzz::Variant::BcastBinomial, fuzz::Variant::BcastScatterRd,
        fuzz::Variant::BcastScatterRingNative,
        fuzz::Variant::BcastScatterRingTuned, fuzz::Variant::BcastAuto,
        fuzz::Variant::BcastPersistent, fuzz::Variant::AllgatherRingNative,
        fuzz::Variant::AllgatherRingTuned}) {
    const int P = fuzz::fit_ranks(v, 9);  // 9, or 8 for the pow2 variants
    for (int root = 0; root < P; ++root) {
      fuzz::FuzzCase c;
      c.variant = v;
      c.nranks = P;
      c.root = root;
      c.nbytes = 12288;
      c = fuzz::normalize_case(c);
      const CaseResult res = verify_case(c);
      EXPECT_TRUE(res.ok) << res.summary();
      EXPECT_TRUE(res.rotation_checked) << fuzz::to_string(v);
      EXPECT_TRUE(res.rotation_full_graph) << fuzz::to_string(v);
      EXPECT_GT(res.rotation_steps, 0u) << fuzz::to_string(v);
    }
  }
}

TEST(Rotation, SwappedPeerInCachedPlanYieldsMinimalWitness) {
  fuzz::FuzzCase c;
  c.variant = fuzz::Variant::BcastScatterRingTuned;
  c.nranks = 9;
  c.root = 4;
  c.nbytes = 12288;
  c = fuzz::normalize_case(c);
  const trace::Schedule fresh =
      trace::record_schedule(c.nranks, c.nbytes, fuzz::make_rank_body(c));
  fuzz::FuzzCase canonical = c;
  canonical.root = 0;
  coll::Plan plan =
      coll::compile_plan(c.nranks, c.nbytes, "bcast-scatter-ring-tuned",
                         fuzz::make_rank_body(canonical));

  // The honest plan proves equivalent, matchings included.
  const RotationReport good = prove_plan_rotation(plan, c.root, fresh);
  EXPECT_TRUE(good.ok) << good.to_string();
  EXPECT_TRUE(good.full_graph_checked);
  EXPECT_EQ(good.plan_fingerprint, plan.fingerprint());

  // Swap one Send peer: the witness must name the exact rank/step/field.
  bool swapped = false;
  for (auto& ops : plan.ops) {
    for (auto& op : ops) {
      if (op.kind == trace::OpKind::Send) {
        op.dst = (op.dst + 1) % plan.nranks;
        swapped = true;
        break;
      }
    }
    if (swapped) break;
  }
  ASSERT_TRUE(swapped);
  const RotationReport bad = prove_plan_rotation(plan, c.root, fresh);
  EXPECT_FALSE(bad.ok);
  ASSERT_TRUE(bad.divergence.has_value());
  EXPECT_GE(bad.divergence->rank, 0);
  EXPECT_GE(bad.divergence->step, 0);
  EXPECT_EQ(bad.divergence->field, "dst");
  EXPECT_NE(bad.plan_fingerprint, good.plan_fingerprint);
}

TEST(Rotation, PlanToScheduleMatchesFreshRecordingEvenUnrotated) {
  fuzz::FuzzCase c;
  c.variant = fuzz::Variant::AllgatherRingTuned;
  c.nranks = 8;
  c.root = 0;
  c.nbytes = 8192;
  c = fuzz::normalize_case(c);
  const trace::Schedule fresh =
      trace::record_schedule(c.nranks, c.nbytes, fuzz::make_rank_body(c));
  const coll::Plan plan =
      coll::compile_plan(c.nranks, c.nbytes, "allgather-ring-tuned",
                         fuzz::make_rank_body(c));
  // A plan IS its recorded schedule, and rotating it to root 0 is a no-op.
  EXPECT_EQ(plan.fingerprint(), trace::fingerprint(fresh));
  EXPECT_EQ(trace::fingerprint(trace::rotate_schedule(plan, 0)),
            plan.fingerprint());
  const RotationReport rep = prove_plan_rotation(plan, 0, fresh);
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

TEST(Rotation, HundredSeedsAgreeWithByteOracleAcrossAllRoots) {
  // Rotation-equivalence PASS must imply real byte-level agreement: for
  // every sampled broadcast case, executing the root-0 compiled plan
  // rotated at root r on the thread backend must deliver the root's exact
  // pattern to every rank, for every r.
  fuzz::GeneratorOptions gen;
  gen.max_ranks = 10;
  gen.max_bytes = 32 * 1024;
  gen.faults = false;
  int exercised = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    fuzz::FuzzCase c = fuzz::sample_case(20260808, i, gen);
    switch (c.variant) {
      case fuzz::Variant::BcastBinomial:
      case fuzz::Variant::BcastScatterRd:
      case fuzz::Variant::BcastScatterRingNative:
      case fuzz::Variant::BcastScatterRingTuned:
        break;
      default:
        continue;  // not a plan-compilable broadcast draw
    }
    ++exercised;
    fuzz::FuzzCase canonical = c;
    canonical.root = 0;
    canonical = fuzz::normalize_case(canonical);
    const coll::Plan plan =
        coll::compile_plan(canonical.nranks, canonical.nbytes,
                           fuzz::to_string(canonical.variant),
                           fuzz::make_rank_body(canonical));
    for (int root = 0; root < canonical.nranks; ++root) {
      fuzz::FuzzCase rotated = canonical;
      rotated.root = root;
      rotated = fuzz::normalize_case(rotated);
      const CaseResult res = verify_case(rotated);
      ASSERT_TRUE(res.rotation_checked) << describe(rotated);
      ASSERT_TRUE(res.ok) << res.summary();
      // The prover streams its fingerprint while re-recording the root-0
      // body; it must name exactly the plan the cache would compile.
      const trace::Schedule fresh = trace::record_schedule(
          rotated.nranks, rotated.nbytes, fuzz::make_rank_body(rotated));
      EXPECT_EQ(prove_rotation_equivalence(rotated, fresh).plan_fingerprint,
                plan.fingerprint())
          << describe(rotated);
      const std::uint64_t seed =
          0xB0A5'0000u + i * 131 + static_cast<std::uint64_t>(root);
      mpisim::World world(canonical.nranks);
      world.run([&](mpisim::ThreadComm& comm) {
        std::vector<std::byte> buf(canonical.nbytes);
        if (comm.rank() == root) fill_pattern(buf, seed);
        coll::execute_plan_rank(comm, plan, comm.rank(), buf, root);
        const std::size_t bad = first_pattern_mismatch(buf, seed);
        EXPECT_EQ(bad, buf.size())
            << describe(rotated) << ": rank " << comm.rank()
            << " first mismatch at byte " << bad;
      });
    }
  }
  EXPECT_GE(exercised, 10) << "generator drift: too few broadcast draws";
}

// ------------------------------------------------------- tag-space lint

TEST(TagSpace, RegisteredTagsProveCleanOverFullContextRange) {
  const TagSpaceReport rep = lint_tag_space();
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(rep.contexts, coll::tags::kMaxCtx);
  EXPECT_EQ(rep.contexts, 2046);
  EXPECT_GE(rep.base_tags, 21);
  EXPECT_GT(rep.checks, 0u);
  // Largest possible remapped tag stays below the barrier/namespace tag.
  EXPECT_GE(rep.max_remapped, 0);
  EXPECT_LT(rep.max_remapped, kMaxUserTag);
  EXPECT_TRUE(rep.witnesses.empty());
}

TEST(TagSpace, PlantedWideTagYieldsWindowCollisionAndRawWitnesses) {
  TagSpaceOptions opt;
  opt.extra_base_tags = {33};
  const TagSpaceReport rep = lint_tag_space(opt);
  EXPECT_FALSE(rep.ok);
  ASSERT_FALSE(rep.witnesses.empty());
  // The planted tag must trip the window check, collide with base tag 1
  // across adjacent contexts (33 + 32c == 1 + 32(c+1)), and alias raw use.
  bool window = false, collision = false, raw = false;
  for (const std::string& w : rep.witnesses) {
    if (w.find("outside the [0, 32) remap window") != std::string::npos) {
      window = true;
    }
    if (w.find("both remap to tag") != std::string::npos) collision = true;
    if (w.find("raw (blocking) use of base tag 33") != std::string::npos) {
      raw = true;
    }
  }
  EXPECT_TRUE(window) << lint_tag_space(opt).to_string();
  EXPECT_TRUE(collision) << lint_tag_space(opt).to_string();
  EXPECT_TRUE(raw) << lint_tag_space(opt).to_string();
}

// ------------------------------------------------ symbolic resource bounds

TEST(Bounds, ClosedFormsDominateGreedyHighWaterPerRank) {
  for (const auto v :
       {fuzz::Variant::BcastBinomial, fuzz::Variant::BcastScatterRingNative,
        fuzz::Variant::BcastScatterRingTuned,
        fuzz::Variant::AllgatherRingNative,
        fuzz::Variant::AllgatherRingTuned}) {
    fuzz::FuzzCase c;
    c.variant = v;
    c.nranks = 9;
    c.root = 4;
    c.nbytes = 12288;
    c = fuzz::normalize_case(c);
    ASSERT_TRUE(eager_bound_checkable(v));
    const trace::Schedule sched =
        trace::record_schedule(c.nranks, c.nbytes, fuzz::make_rank_body(c));
    const trace::MatchResult m = trace::match_schedule(sched);
    for (const std::uint64_t thr : {0ull, 700ull, 1ull << 20}) {
      const HbReport hb = analyze_hb(sched, m, HbOptions{thr});
      ASSERT_FALSE(hb.deadlock);
      const std::vector<std::uint64_t> bound = eager_peak_bounds(c, thr);
      ASSERT_EQ(bound.size(), static_cast<std::size_t>(c.nranks));
      ASSERT_EQ(hb.rank_eager_high_water.size(), bound.size());
      for (int r = 0; r < c.nranks; ++r) {
        EXPECT_LE(hb.rank_eager_high_water[static_cast<std::size_t>(r)],
                  bound[static_cast<std::size_t>(r)])
            << fuzz::to_string(v) << " rank " << r << " threshold " << thr;
      }
    }
  }
}

TEST(Bounds, VerifierGatesBoundsOnCheckableVariants) {
  fuzz::FuzzCase c;
  c.variant = fuzz::Variant::BcastScatterRingTuned;
  c.nranks = 10;
  c.root = 7;
  c.nbytes = 12288;
  c = fuzz::normalize_case(c);
  const CaseResult res = verify_case(c);
  EXPECT_TRUE(res.ok) << res.summary();
  EXPECT_TRUE(res.eager_bounds_checked);
  EXPECT_GT(res.eager_bound_max, 0u);
}

TEST(Bounds, HierShmPoolProvenCleanOnRaggedShape) {
  fuzz::FuzzCase c;
  c.variant = fuzz::Variant::BcastHier;
  c.nranks = 11;
  c.root = 5;
  c.nbytes = 12288;
  c.node_sizes = {4, 4, 3};
  c = fuzz::normalize_case(c);
  const CaseResult res = verify_case(c);
  EXPECT_TRUE(res.ok) << res.summary();
  EXPECT_TRUE(res.shm_checked);
  EXPECT_TRUE(res.eager_bounds_checked);
  // Peak per-node single-copy residency: (largest node size - 1) * nbytes.
  EXPECT_EQ(res.shm_peak_node_bytes, 3u * c.nbytes);

  const trace::Schedule sched =
      trace::record_schedule(c.nranks, c.nbytes, fuzz::make_rank_body(c));
  const ShmPoolReport shm = verify_shm_pool(sched, c.node_sizes, c.root);
  EXPECT_TRUE(shm.ok);
  EXPECT_EQ(shm.fanout_msgs, 8u);  // one per non-leader
  EXPECT_EQ(shm.peak_node_bytes, shm.bound_node_bytes);
}

TEST(Bounds, CrossNodeFanoutMessageYieldsShmWitness) {
  // Hand-built: the "leader" of node 0 ships a kHierFanout message to a
  // rank on node 1 — the simulated shm channel cannot carry it.
  trace::Schedule sched;
  sched.nranks = 4;
  sched.nbytes = 256;
  sched.ops.resize(4);
  sched.ops[0] = {send_op(2, coll::tags::kHierFanout, 256, 0)};
  sched.ops[2] = {recv_op(0, coll::tags::kHierFanout, 256, 0)};
  const ShmPoolReport shm = verify_shm_pool(sched, {2, 2}, 0);
  EXPECT_FALSE(shm.ok);
  EXPECT_EQ(shm.fanout_msgs, 1u);
  bool crossing = false;
  for (const std::string& w : shm.witnesses) {
    if (w.find("crosses nodes") != std::string::npos) crossing = true;
  }
  EXPECT_TRUE(crossing);
}

TEST(Bounds, DoubleFanoutSabotageTripsTheShmPoolProof) {
  fuzz::FuzzCase c;
  c.variant = fuzz::Variant::BcastHier;
  c.nranks = 11;
  c.root = 5;
  c.nbytes = 12288;
  c.node_sizes = {4, 4, 3};
  c = fuzz::normalize_case(c);
  const CaseResult res =
      verify_case(c, VerifyOptions{}, fuzz::Sabotage::HierDoubleFanout);
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(has_failure_prefix(res, "bounds: shm")) << res.summary();
}

}  // namespace
}  // namespace bsb::verify
