#include "obs/timeline.h"

#include <algorithm>
#include <cassert>

#include "support/prof.h"

namespace softres::obs {

Timeline::Timeline(const Registry& registry, std::size_t ticks)
    : readers_(registry.series()) {
  times_.reserve(ticks);
  series_.reserve(readers_.size());
  for (const Reader& r : readers_) {
    series_.push_back(
        Series{r.name(), r.labels(), render_series(r.name(), r.labels()), {}});
    series_.back().values.reserve(ticks);
  }
}

void Timeline::record(sim::SimTime now) {
  SOFTRES_PROF_COUNT(kTimeline);
  assert(readers_.size() == series_.size());
  times_.push_back(now);
  for (std::size_t i = 0; i < series_.size(); ++i) {
    series_[i].values.push_back(readers_[i].read(now));
  }
}

Timeline Timeline::take() {
  Timeline out;
  out.times_ = std::move(times_);
  out.series_ = std::move(series_);
  *this = Timeline();
  return out;
}

const Series* Timeline::find_series(const std::string& family,
                                    const Labels& labels) const {
  for (const Series& s : series_) {
    if (s.family == family && s.labels == labels) return &s;
  }
  return nullptr;
}

std::span<const double> Timeline::window(const Series& s, sim::SimTime lo,
                                         sim::SimTime hi) const {
  // The time column is ascending, so [lo, hi) is one contiguous run.
  const auto first = std::lower_bound(times_.begin(), times_.end(), lo);
  const auto last = std::lower_bound(first, times_.end(), hi);
  return std::span<const double>(s.values).subspan(
      static_cast<std::size_t>(first - times_.begin()),
      static_cast<std::size_t>(last - first));
}

double Timeline::mean_between(const Series& s, sim::SimTime lo,
                              sim::SimTime hi) const {
  const std::span<const double> w = window(s, lo, hi);
  double sum = 0.0;
  for (const double v : w) sum += v;
  return w.empty() ? 0.0 : sum / static_cast<double>(w.size());
}

double Timeline::trailing_mean(std::size_t i, double window_s) const {
  if (times_.empty()) return 0.0;
  const std::vector<double>& v = series_[i].values;
  const sim::SimTime lo = times_.back() - window_s;
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t k = times_.size(); k-- > 0 && times_[k] >= lo;) {
    sum += v[k];
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace softres::obs
