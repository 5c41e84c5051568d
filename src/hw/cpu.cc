#include "hw/cpu.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace softres::hw {

Cpu::Cpu(sim::Simulator& sim, std::string name, unsigned cores,
         double context_switch_coeff)
    : sim_(sim), name_(std::move(name)), cores_(cores),
      inv_cores_(1.0 / static_cast<double>(cores)),
      cs_coeff_(context_switch_coeff) {
  assert(cores > 0);
  last_update_ = sim.now();
}

void Cpu::freeze(double duration) {
  if (duration <= 0.0) return;
  advance_to_now();
  const sim::SimTime until = sim_.now() + duration;
  if (until <= freeze_until_) return;  // already frozen longer
  freeze_until_ = until;
  if (!sim_.reschedule_at(unfreeze_event_, until)) {
    unfreeze_event_ = sim_.schedule_at(until, [this] { on_unfreeze(); });
  }
  // Application progress halts; drop any pending completion.
  sim_.cancel(completion_event_);
  completion_event_ = sim::EventHandle();
  completion_due_ = std::numeric_limits<double>::infinity();
}

void Cpu::on_unfreeze() {
  advance_to_now();
  reschedule_completion();
}

void Cpu::on_completion_timer() {
  completion_event_ = sim::EventHandle();
  completion_due_ = std::numeric_limits<double>::infinity();
  advance_to_now();
  complete_ready_jobs();
}

void Cpu::complete_ready_jobs() {
  while (!jobs_.empty() && jobs_.top().time <= attained_ + sim::kTimeEpsilon) {
    const std::uint32_t slot =
        static_cast<std::uint32_t>(jobs_.pop().key & kSlotMask);
    Callback done = std::move(job_slots_[slot]);
    job_free_.push_back(slot);
    ++completed_;
    done();  // may submit new jobs; state is consistent here
  }
  reschedule_completion();
}

double Cpu::busy_core_seconds() const {
  // Include the in-flight interval since the last event.
  Cpu* self = const_cast<Cpu*>(this);
  self->advance_to_now();
  return busy_core_seconds_;
}

double Cpu::freeze_core_seconds() const {
  Cpu* self = const_cast<Cpu*>(this);
  self->advance_to_now();
  return freeze_core_seconds_;
}

double Cpu::work_done() const {
  Cpu* self = const_cast<Cpu*>(this);
  self->advance_to_now();
  return work_done_;
}

double Cpu::instantaneous_utilization() const {
  if (frozen()) return 1.0;
  if (jobs_.empty()) return 0.0;
  return std::min(1.0, static_cast<double>(jobs_.size()) /
                           static_cast<double>(cores_));
}

}  // namespace softres::hw
