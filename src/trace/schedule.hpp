// Communication schedules: the per-rank sequence of point-to-point
// operations a (data-oblivious) collective algorithm performs for a given
// (P, root, nbytes). Schedules are captured by RecordingComm, validated by
// match/coverage, counted by counters, and replayed under a cost model by
// the netsim discrete-event engine.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bsbutil/error.hpp"

namespace bsb::trace {

/// Schedule-level validation failure (unmatched message, truncation, ...).
class ScheduleError : public Error {
 public:
  explicit ScheduleError(const std::string& what) : Error(what) {}
};

enum class OpKind : std::uint8_t { Send, Recv, SendRecv, Barrier };

/// Offset recorded for spans that live OUTSIDE the collective's data buffer
/// (e.g. Bruck's rotation scratch). Such schedules replay fine (timing does
/// not depend on offsets) but cannot be dataflow-validated.
inline constexpr std::uint64_t kForeignOffset = ~std::uint64_t{0};

const char* to_string(OpKind k) noexcept;

/// One blocking operation of one rank. Send halves are valid for
/// Send/SendRecv, receive halves for Recv/SendRecv. Offsets are relative to
/// the collective's data buffer (all our broadcast algorithms operate on a
/// single buffer), enabling symbolic dataflow validation.
struct Op {
  OpKind kind = OpKind::Barrier;
  // send half
  int dst = -1;
  int send_tag = -1;
  std::uint64_t send_bytes = 0;
  std::uint64_t send_off = 0;
  // receive half
  int src = -1;
  int recv_tag = -1;
  std::uint64_t recv_cap = 0;
  std::uint64_t recv_off = 0;

  bool has_send() const noexcept {
    return kind == OpKind::Send || kind == OpKind::SendRecv;
  }
  bool has_recv() const noexcept {
    return kind == OpKind::Recv || kind == OpKind::SendRecv;
  }
};

struct Schedule {
  int nranks = 0;
  std::uint64_t nbytes = 0;              // size of the collective's buffer
  std::vector<std::vector<Op>> ops;      // ops[rank] in program order

  std::uint64_t total_ops() const noexcept;
  /// Number of messages initiated (send halves).
  std::uint64_t total_sends() const noexcept;
  /// Sum of bytes over all send halves.
  std::uint64_t total_send_bytes() const noexcept;

  /// The same schedule repeated `iters` times per rank back-to-back — the
  /// paper's measurement loop (one barrier, then N broadcasts).
  Schedule replicate(int iters) const;
};

/// Order-sensitive, word-wise FNV-1a hash over a schedule's shape and every
/// op field (one multiply per field stays cheap on the 16M-op P=4096 ring
/// schedules). Equal fingerprints mean op-for-op identical schedules. The
/// rotation-equivalence prover streams it one rank at a time while
/// recording; coll::Plan::fingerprint hashes the whole stored schedule.
class Fingerprint {
 public:
  Fingerprint(int nranks, std::uint64_t nbytes) noexcept;
  /// Mix in the next rank's op list (ranks in order 0..nranks-1).
  void add_rank(std::span<const Op> ops) noexcept;
  std::uint64_t value() const noexcept { return h_; }

 private:
  void mix(std::uint64_t v) noexcept;
  std::uint64_t h_;
};

/// The Fingerprint of a whole stored schedule.
std::uint64_t fingerprint(const Schedule& sched) noexcept;

/// Relabel a root-canonical (root-0) rank's op list into the frame of
/// `root`: every peer p becomes abs_rank(p, root, nranks); kinds, tags,
/// sizes and offsets are unchanged. Executors apply the same mapping on
/// the fly (coll::execute_plan_rank, the progress engine's member map).
std::vector<Op> rotate_ops(std::span<const Op> ops, int root, int nranks);

/// The schedule a root-canonical schedule performs when executed at
/// `root`: absolute rank abs_rank(rel, root, P) runs rank rel's ops,
/// rotated by rotate_ops.
Schedule rotate_schedule(const Schedule& canonical, int root);

}  // namespace bsb::trace
