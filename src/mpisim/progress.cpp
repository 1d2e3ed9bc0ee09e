#include "mpisim/progress.hpp"

#include <algorithm>
#include <chrono>

#include "bsbutil/error.hpp"
#include "mpisim/errors.hpp"

namespace bsb::mpisim {

/// One in-flight collective: plan + cursor + the (at most two) outstanding
/// point-to-point requests of the current step. Owned jointly by the
/// engine's active list and the user's CollRequest handles; only the
/// owning rank's thread ever touches it.
struct CollRequest::Op {
  std::shared_ptr<const coll::Plan> plan;
  std::span<std::byte> buffer;
  int local_rank = 0;
  std::vector<int> members;  // plan rank -> world rank; empty = identity
  int context = 0;           // SubComm tag namespace; 0 = world
  int ctx = 0;               // per-communicator operation sequence slot

  std::size_t pc = 0;        // next / currently-issued step
  bool issued = false;       // step pc's requests are outstanding
  Request send_req, recv_req;
  bool send_live = false;
  bool recv_live = false;

  bool done = false;
  std::exception_ptr error;  // deferred; thrown at first wait()/test()

  int world_rank(int r) const {
    return members.empty() ? r : members[static_cast<std::size_t>(r)];
  }

  /// Replicates SubComm::translate_tag on top of the per-op context slot,
  /// so nonblocking subgroup traffic lands in exactly the namespace its
  /// blocking counterpart would use.
  int world_tag(int tag) const {
    const int eff = tag + ProgressEngine::kCtxStride * ctx;
    return context == 0 ? eff : context * (kMaxUserTag + 1) + eff;
  }
};

// ------------------------------------------------------------ CollRequest

void CollRequest::wait() {
  if (!op_) return;
  BSB_ASSERT(engine_ != nullptr, "CollRequest: op without engine");
  engine_->wait_op(op_);
}

bool CollRequest::test() {
  if (!op_) return true;
  BSB_ASSERT(engine_ != nullptr, "CollRequest: op without engine");
  engine_->progress();
  if (op_->error) ProgressEngine::rethrow_op_error(*op_);
  return op_->done;
}

void wait_all_coll(std::span<CollRequest> requests) {
  // Unlike point-to-point wait_all there is no drain shortcut: every wait
  // is watchdog-bounded, and completing the remaining collectives is
  // usually possible (and desirable) even after one failed.
  std::exception_ptr first_error;
  for (CollRequest& r : requests) {
    try {
      r.wait();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

// --------------------------------------------------------- ProgressEngine

CollRequest ProgressEngine::start(std::shared_ptr<const coll::Plan> plan,
                                  std::span<std::byte> buffer, int local_rank,
                                  std::vector<int> members, int context) {
  BSB_REQUIRE(plan != nullptr, "ProgressEngine::start: null plan");
  BSB_REQUIRE(buffer.size() == plan->nbytes,
              "ProgressEngine::start: buffer size differs from the plan");
  BSB_REQUIRE(local_rank >= 0 && local_rank < plan->nranks,
              "ProgressEngine::start: local rank out of range");
  BSB_REQUIRE(members.empty() ||
                  members.size() == static_cast<std::size_t>(plan->nranks),
              "ProgressEngine::start: member map size differs from the plan");
  BSB_REQUIRE(context >= 0, "ProgressEngine::start: negative context");
  BSB_REQUIRE(plan->max_tag < kCtxStride,
              "ProgressEngine::start: plan tag exceeds the context stride");

  auto op = std::make_shared<CollRequest::Op>();
  op->plan = std::move(plan);
  op->buffer = buffer;
  op->local_rank = local_rank;
  op->members = std::move(members);
  op->context = context;
  op->ctx = 1 + static_cast<int>(next_seq_[context]++ %
                                 static_cast<std::uint64_t>(kMaxCtx));
  active_.push_back(op);
  progress_op(*op);  // issue the first step right away

  CollRequest req;
  req.op_ = op;
  req.engine_ = this;
  return req;
}

void ProgressEngine::progress() {
  for (const auto& op : active_) progress_op(*op);
  std::erase_if(active_, [](const std::shared_ptr<CollRequest::Op>& op) {
    return op->done || op->error != nullptr;
  });
}

void ProgressEngine::progress_op(CollRequest::Op& op) {
  if (op.done || op.error) return;
  const auto& steps = op.plan->ops[static_cast<std::size_t>(op.local_rank)];
  while (true) {
    if (!op.issued) {
      if (op.pc == steps.size()) {
        op.done = true;
        return;
      }
      const trace::Op& s = steps[op.pc];
      try {
        // Post the receive half first so an inbound eager payload can land
        // directly in the user buffer instead of a mailbox copy.
        if (s.has_recv()) {
          op.recv_req = comm_->irecv(op.buffer.subspan(s.recv_off, s.recv_cap),
                                     op.world_rank(s.src),
                                     op.world_tag(s.recv_tag));
          op.recv_live = true;
        }
        if (s.has_send()) {
          op.send_req = comm_->isend(
              std::span<const std::byte>(op.buffer).subspan(s.send_off,
                                                            s.send_bytes),
              op.world_rank(s.dst), op.world_tag(s.send_tag));
          op.send_live = true;
        }
      } catch (...) {
        op.error = std::current_exception();
        op.send_req = Request{};  // dropping a live request cancels it
        op.recv_req = Request{};
        op.send_live = op.recv_live = false;
        return;
      }
      op.issued = true;
    }
    try {
      if (op.recv_live && op.recv_req.test()) {
        op.recv_req = Request{};
        op.recv_live = false;
      }
      if (op.send_live && op.send_req.test()) {
        op.send_req = Request{};
        op.send_live = false;
      }
    } catch (...) {
      op.error = std::current_exception();
      op.send_req = Request{};
      op.recv_req = Request{};
      op.send_live = op.recv_live = false;
      return;
    }
    if (op.send_live || op.recv_live) return;  // parked behind a pending peer
    op.issued = false;
    ++op.pc;
    ++steps_retired_;
  }
}

void ProgressEngine::wait_op(const std::shared_ptr<CollRequest::Op>& op) {
  const double watchdog = comm_->world().config().watchdog_seconds;
  auto last_advance = std::chrono::steady_clock::now();
  std::uint64_t seen = steps_retired_;
  double slice = 0.0002;
  while (true) {
    progress();
    if (op->error) rethrow_op_error(*op);
    if (op->done) return;
    if (steps_retired_ != seen) {
      // ANY op advancing counts as progress: a heavily loaded rank must
      // not trip the watchdog while the engine is demonstrably working.
      seen = steps_retired_;
      last_advance = std::chrono::steady_clock::now();
      slice = 0.0002;
    }
    // progress_op only parks an op behind an outstanding request, so one
    // of the two halves is live; block briefly on it rather than spin.
    BSB_ASSERT(op->recv_live || op->send_live,
               "ProgressEngine: parked op without a live request");
    const Request pending = op->recv_live ? op->recv_req : op->send_req;
    if (!pending.wait_for(slice)) {
      slice = std::min(slice * 2.0, 0.01);
      const std::chrono::duration<double> stalled =
          std::chrono::steady_clock::now() - last_advance;
      if (stalled.count() > watchdog) {
        throw DeadlockError(
            "CollRequest::wait: watchdog expired with " +
            std::to_string(in_flight()) + " collective(s) in flight and no "
            "step progress (peer rank missing or stuck?)");
      }
    }
  }
}

void ProgressEngine::rethrow_op_error(CollRequest::Op& op) {
  const std::exception_ptr error = op.error;
  op.error = nullptr;
  op.done = true;  // reported: the request now counts as complete
  std::rethrow_exception(error);
}

}  // namespace bsb::mpisim
