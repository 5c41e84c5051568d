#include "soft/pool.h"

#include "soft/partition.h"

namespace softres::soft {

Pool::Pool(sim::Simulator& sim, std::string name, std::size_t capacity)
    : sim_(sim), name_(std::move(name)), capacity_(capacity) {
  occupancy_.reset(sim.now());
}

bool Pool::try_acquire(std::uint32_t tenant) {
  if (in_use_ >= capacity_ || !waiters_.empty()) return false;
  if (arbiter_ != nullptr && !arbiter_->may_take(*this, tenant)) return false;
  ++in_use_;
  ++total_acquired_;
  wait_stats_.add(0.0);
  occupancy_.set(sim_.now(), static_cast<double>(in_use_));
  if (arbiter_ != nullptr) {
    ++tenant_in_use_[tenant];
    ++tenant_acquired_[tenant];
    tenant_occupancy_[tenant].set(sim_.now(),
                                  static_cast<double>(tenant_in_use_[tenant]));
  }
  return true;
}

void Pool::set_capacity(std::size_t capacity) {
  if (capacity == capacity_) return;
  epochs_.push_back(CapacityEpoch{sim_.now(), capacity_, capacity});
  capacity_ = capacity;
  if (arbiter_ != nullptr) {
    dispatch_shared();
    return;
  }
  while (!waiters_.empty() && in_use_ < capacity_) {
    Waiter w = std::move(waiters_.front());
    waiters_.pop_front();
    grant(std::move(w.granted), w.enqueued_at);
  }
}

void Pool::set_arbiter(TenantArbiter* arbiter) {
  assert(in_use_ == 0 && waiters_.empty());
  arbiter_ = arbiter;
  const std::size_t n = arbiter != nullptr ? arbiter->tenants() : 0;
  tenant_in_use_.assign(n, 0);
  tenant_acquired_.assign(n, 0);
  tenant_occupancy_.assign(n, sim::TimeWeighted{});
  for (sim::TimeWeighted& occ : tenant_occupancy_) occ.reset(sim_.now());
}

void Pool::acquire_shared(Callback granted, std::uint32_t tenant) {
  assert(tenant < tenant_in_use_.size());
  if (in_use_ < capacity_ && arbiter_->may_take(*this, tenant)) {
    grant_shared(std::move(granted), sim_.now(), tenant);
  } else {
    waiters_.push_back(Waiter{std::move(granted), sim_.now(), tenant});
  }
}

void Pool::release_shared(std::uint32_t tenant) {
  assert(tenant < tenant_in_use_.size());
  assert(tenant_in_use_[tenant] > 0);
  if (in_use_ > capacity_) ++drained_total_;
  --in_use_;
  --tenant_in_use_[tenant];
  occupancy_.set(sim_.now(), static_cast<double>(in_use_));
  tenant_occupancy_[tenant].set(sim_.now(),
                                static_cast<double>(tenant_in_use_[tenant]));
  dispatch_shared();
}

void Pool::grant_shared(Callback granted, sim::SimTime waited_since,
                        std::uint32_t tenant) {
  ++in_use_;
  ++tenant_in_use_[tenant];
  ++total_acquired_;
  ++tenant_acquired_[tenant];
  wait_stats_.add(sim_.now() - waited_since);
  occupancy_.set(sim_.now(), static_cast<double>(in_use_));
  tenant_occupancy_[tenant].set(sim_.now(),
                                static_cast<double>(tenant_in_use_[tenant]));
  granted();
}

void Pool::dispatch_shared() {
  // Hand out freed/new units one at a time: the arbiter re-selects against
  // fresh state each round because a grant continuation may synchronously
  // acquire or release (the tier state machines do both).
  while (in_use_ < capacity_ && !waiters_.empty()) {
    const std::size_t idx = arbiter_->select(*this);
    if (idx == TenantArbiter::kNoPick) break;
    Waiter w = std::move(waiters_[idx]);
    waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(idx));
    grant_shared(std::move(w.granted), w.enqueued_at, w.tenant);
  }
}

void Pool::reset_stats(sim::SimTime t) {
  total_acquired_ = 0;
  wait_stats_.reset();
  occupancy_.reset(t);
  occupancy_.set(t, static_cast<double>(in_use_));
  for (std::size_t i = 0; i < tenant_occupancy_.size(); ++i) {
    tenant_acquired_[i] = 0;
    tenant_occupancy_[i].reset(t);
    tenant_occupancy_[i].set(t, static_cast<double>(tenant_in_use_[i]));
  }
}

}  // namespace softres::soft
