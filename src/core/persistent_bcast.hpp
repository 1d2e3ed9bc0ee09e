// Persistent broadcast (MPI-4 style, MPI_Bcast_init analogue): resolve the
// algorithm choice, chunk layout and the tuned ring plan ONCE for a fixed
// (comm, nbytes, root), then execute the precompiled op list many times.
// Solvers that broadcast the same-shaped buffer every iteration skip all
// per-call planning; the op list also makes the tuned ring's structure
// inspectable (used by tests and the cluster_explorer example).
//
// The op lists are a shared coll::Plan fetched through the process-wide
// schedule cache (coll/schedule_cache.hpp), so every rank of a World — and
// every later PersistentBcast or core::ibcast of the same shape — reuses
// one compilation.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "coll/plan.hpp"
#include "comm/comm.hpp"
#include "core/bcast.hpp"

namespace bsb::core {

/// A broadcast "compiled" for this rank of `comm` at construction time.
/// execute() may be called any number of times; the buffer must have the
/// same size each time (its contents of course change).
class PersistentBcast {
 public:
  /// Plans the same algorithm bcast(comm, buffer, root, cfg) would run.
  PersistentBcast(Comm& comm, std::uint64_t nbytes, int root,
                  const BcastConfig& cfg = {});

  /// Run the precompiled schedule. `buffer.size()` must equal nbytes().
  void execute(std::span<std::byte> buffer) const;

  BcastAlgorithm algorithm() const noexcept { return algorithm_; }
  std::uint64_t nbytes() const noexcept { return plan_->nbytes; }
  int root() const noexcept { return root_; }

  /// The op list this rank will run (inspection/testing). The backing
  /// plan is root-canonical, so the ops are in RELATIVE-rank coordinates
  /// (peer r means absolute rank (r + root) % P); execute() applies the
  /// rotation.
  const std::vector<trace::Op>& steps() const noexcept;

  /// The whole-communicator plan backing this handle.
  const std::shared_ptr<const coll::Plan>& plan() const noexcept { return plan_; }

  /// Human-readable step listing.
  std::string describe() const;

 private:
  Comm* comm_;
  int root_;
  BcastAlgorithm algorithm_;
  std::shared_ptr<const coll::Plan> plan_;
};

}  // namespace bsb::core
