#include "core/persistent_bcast.hpp"

#include "bsbutil/error.hpp"
#include "comm/chunks.hpp"
#include "core/icoll.hpp"

namespace bsb::core {

PersistentBcast::PersistentBcast(Comm& comm, std::uint64_t nbytes, int root,
                                 const BcastConfig& cfg)
    : comm_(&comm),
      root_(root),
      algorithm_(choose_bcast_algorithm(nbytes, comm.size(), cfg)) {
  BSB_REQUIRE(root >= 0 && root < comm.size(),
              "PersistentBcast: root out of range");
  plan_ = bcast_plan(comm.size(), nbytes, root, cfg);
}

void PersistentBcast::execute(std::span<std::byte> buffer) const {
  coll::execute_plan_rank(*comm_, *plan_, comm_->rank(), buffer, root_);
}

const std::vector<trace::Op>& PersistentBcast::steps() const noexcept {
  return plan_->ops[static_cast<std::size_t>(
      rel_rank(comm_->rank(), root_, comm_->size()))];
}

std::string PersistentBcast::describe() const {
  return "PersistentBcast(root " + std::to_string(root_) + "): " +
         coll::describe_plan_rank(
             *plan_, rel_rank(comm_->rank(), root_, comm_->size()));
}

}  // namespace bsb::core
