#include "coll/plan.hpp"

#include <algorithm>

#include "bsbutil/error.hpp"
#include "comm/chunks.hpp"

namespace bsb::coll {

Plan compile_plan(int nranks, std::uint64_t nbytes, std::string name,
                  const trace::RankProgram& program) {
  BSB_REQUIRE(nranks >= 1, "compile_plan: nranks must be positive");
  Plan plan;
  static_cast<trace::Schedule&>(plan) =
      trace::record_schedule(nranks, nbytes, program);
  plan.name = std::move(name);
  for (const auto& rank_ops : plan.ops) {
    for (const trace::Op& op : rank_ops) {
      BSB_REQUIRE(op.kind != trace::OpKind::Barrier,
                  "compile_plan: algorithm uses barriers");
      if (op.has_send()) {
        BSB_REQUIRE(op.send_off != trace::kForeignOffset,
                    "compile_plan: algorithm used scratch memory");
        plan.max_tag = std::max(plan.max_tag, op.send_tag);
      }
      if (op.has_recv()) {
        BSB_REQUIRE(op.recv_off != trace::kForeignOffset,
                    "compile_plan: algorithm used scratch memory");
        BSB_REQUIRE(!op.has_send() || op.recv_tag == op.send_tag,
                    "compile_plan: sendrecv halves use different tags");
        plan.max_tag = std::max(plan.max_tag, op.recv_tag);
      }
    }
  }
  return plan;
}

void execute_plan_rank(Comm& comm, const Plan& plan, int rank,
                       std::span<std::byte> buffer, int root) {
  BSB_REQUIRE(rank >= 0 && rank < plan.nranks,
              "execute_plan_rank: rank out of range");
  BSB_REQUIRE(root >= 0 && root < plan.nranks,
              "execute_plan_rank: root out of range");
  BSB_REQUIRE(comm.size() == plan.nranks,
              "execute_plan_rank: communicator size differs from the plan");
  BSB_REQUIRE(buffer.size() == plan.nbytes,
              "execute_plan_rank: buffer size differs from the planned size");
  const int P = plan.nranks;
  const std::span<const std::byte> in(buffer);
  for (const trace::Op& op : plan.ops[static_cast<std::size_t>(
           rel_rank(rank, root, P))]) {
    if (op.kind == trace::OpKind::SendRecv) {
      comm.sendrecv(in.subspan(op.send_off, op.send_bytes),
                    abs_rank(op.dst, root, P), op.send_tag,
                    buffer.subspan(op.recv_off, op.recv_cap),
                    abs_rank(op.src, root, P), op.recv_tag);
    } else if (op.has_send()) {
      comm.send(in.subspan(op.send_off, op.send_bytes),
                abs_rank(op.dst, root, P), op.send_tag);
    } else {
      comm.recv(buffer.subspan(op.recv_off, op.recv_cap),
                abs_rank(op.src, root, P), op.recv_tag);
    }
  }
}

std::string describe_plan_rank(const Plan& plan, int rank) {
  BSB_REQUIRE(rank >= 0 && rank < plan.nranks,
              "describe_plan_rank: rank out of range");
  const auto& ops = plan.ops[static_cast<std::size_t>(rank)];
  std::string out = plan.name + ", " + std::to_string(plan.nbytes) +
                    " bytes, " + std::to_string(ops.size()) +
                    " step(s) on rank " + std::to_string(rank) + "\n";
  const auto send_half = [](const trace::Op& op) {
    return "[" + std::to_string(op.send_off) + "+" +
           std::to_string(op.send_bytes) + ") -> " + std::to_string(op.dst);
  };
  const auto recv_half = [](const trace::Op& op) {
    return "[" + std::to_string(op.recv_off) + "+" +
           std::to_string(op.recv_cap) + ") <- " + std::to_string(op.src);
  };
  for (const trace::Op& op : ops) {
    if (op.kind == trace::OpKind::SendRecv) {
      out += "  xchg  " + send_half(op) + ", " + recv_half(op) + "\n";
    } else if (op.has_send()) {
      out += "  send  " + send_half(op) + "\n";
    } else {
      out += "  recv  " + recv_half(op) + "\n";
    }
  }
  return out;
}

}  // namespace bsb::coll
