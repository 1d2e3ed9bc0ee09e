#include "trace/schedule.hpp"

#include "comm/chunks.hpp"

namespace bsb::trace {

const char* to_string(OpKind k) noexcept {
  switch (k) {
    case OpKind::Send: return "Send";
    case OpKind::Recv: return "Recv";
    case OpKind::SendRecv: return "SendRecv";
    case OpKind::Barrier: return "Barrier";
  }
  return "?";
}

std::uint64_t Schedule::total_ops() const noexcept {
  std::uint64_t n = 0;
  for (const auto& r : ops) n += r.size();
  return n;
}

std::uint64_t Schedule::total_sends() const noexcept {
  std::uint64_t n = 0;
  for (const auto& r : ops) {
    for (const Op& op : r) {
      if (op.has_send()) ++n;
    }
  }
  return n;
}

std::uint64_t Schedule::total_send_bytes() const noexcept {
  std::uint64_t n = 0;
  for (const auto& r : ops) {
    for (const Op& op : r) {
      if (op.has_send()) n += op.send_bytes;
    }
  }
  return n;
}

Schedule Schedule::replicate(int iters) const {
  BSB_REQUIRE(iters >= 1, "replicate: iters must be >= 1");
  Schedule out;
  out.nranks = nranks;
  out.nbytes = nbytes;
  out.ops.resize(ops.size());
  for (std::size_t r = 0; r < ops.size(); ++r) {
    out.ops[r].reserve(ops[r].size() * iters);
    for (int i = 0; i < iters; ++i) {
      out.ops[r].insert(out.ops[r].end(), ops[r].begin(), ops[r].end());
    }
  }
  return out;
}

Fingerprint::Fingerprint(int nranks, std::uint64_t nbytes) noexcept
    : h_(14695981039346656037ull) {  // FNV-1a 64-bit offset basis
  mix(static_cast<std::uint64_t>(nranks));
  mix(nbytes);
}

void Fingerprint::mix(std::uint64_t v) noexcept {
  h_ = (h_ ^ v) * 1099511628211ull;  // FNV-1a 64-bit prime
}

void Fingerprint::add_rank(std::span<const Op> ops) noexcept {
  mix(ops.size());
  for (const Op& op : ops) {
    // Absent halves hash as their defaults, and a SendRecv hashes its one
    // tag once (plans require both halves to agree), so a fingerprint does
    // not depend on leftovers in unused fields.
    mix(static_cast<std::uint64_t>(op.kind));
    mix(static_cast<std::uint64_t>(op.has_send() ? op.dst : -1));
    mix(op.has_send() ? op.send_off : 0);
    mix(op.has_send() ? op.send_bytes : 0);
    mix(static_cast<std::uint64_t>(op.has_recv() ? op.src : -1));
    mix(op.has_recv() ? op.recv_off : 0);
    mix(op.has_recv() ? op.recv_cap : 0);
    mix(static_cast<std::uint64_t>(op.has_send() ? op.send_tag : op.recv_tag));
  }
}

std::uint64_t fingerprint(const Schedule& sched) noexcept {
  Fingerprint fp(sched.nranks, sched.nbytes);
  for (const auto& rank_ops : sched.ops) fp.add_rank(rank_ops);
  return fp.value();
}

std::vector<Op> rotate_ops(std::span<const Op> ops, int root, int nranks) {
  std::vector<Op> out(ops.begin(), ops.end());
  for (Op& op : out) {
    if (op.has_send()) op.dst = abs_rank(op.dst, root, nranks);
    if (op.has_recv()) op.src = abs_rank(op.src, root, nranks);
  }
  return out;
}

Schedule rotate_schedule(const Schedule& canonical, int root) {
  const int P = canonical.nranks;
  BSB_REQUIRE(root >= 0 && root < P, "rotate_schedule: root out of range");
  Schedule out;
  out.nranks = P;
  out.nbytes = canonical.nbytes;
  out.ops.resize(static_cast<std::size_t>(P));
  for (int rel = 0; rel < P; ++rel) {
    out.ops[static_cast<std::size_t>(abs_rank(rel, root, P))] =
        rotate_ops(canonical.ops[static_cast<std::size_t>(rel)], root, P);
  }
  return out;
}

}  // namespace bsb::trace
