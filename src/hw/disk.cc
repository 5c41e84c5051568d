#include "hw/disk.h"

#include <cassert>
#include <utility>

namespace softres::hw {

Disk::Disk(sim::Simulator& sim, std::string name, double median_s,
           double sigma, sim::Rng rng)
    : sim_(sim), name_(std::move(name)), median_s_(median_s), sigma_(sigma),
      rng_(rng) {}

void Disk::submit(Callback done) {
  assert(done);
  queue_.push_back(std::move(done));
  if (!in_service_) start_next();
}

void Disk::start_next() {
  if (queue_.empty()) {
    in_service_ = nullptr;
    return;
  }
  in_service_ = std::move(queue_.front());
  queue_.pop_front();
  const double s = rng_.lognormal_median(median_s_, sigma_);
  busy_seconds_ += s;
  auto on_complete = [this] { complete(); };
  static_assert(Callback::stores_inline<decltype(on_complete)>(),
                "the disk completion must stay inline");
  sim_.schedule(s, on_complete);
}

void Disk::complete() {
  ++ops_;
  // The operation stays in service while its callback runs, so a submit
  // from inside the callback only queues; start_next() picks what is next.
  in_service_();
  start_next();
}

}  // namespace softres::hw
