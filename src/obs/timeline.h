#pragma once

// The per-trial time-series store: every registry counter and gauge, read
// once per sampling tick for the whole trial. One shared time column plus one
// value column per series, all reserved once from the trial horizon at the
// sampling cadence (1 s in the testbed: the paper's SysStat granularity).
// The diagnoser, the flight-recorder report, Experiment's condensed CPU and
// pool stats and RunResult::series all read this one table.
//
// Rendering contract (enforced by softres-lint rule SR008): timeline and
// diagnoser code never writes to streams; all human-facing output goes
// through obs/report.h.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "sim/sim_time.h"

namespace softres::obs {

/// One recorded series: its registry identity and its value column, aligned
/// index for index with the owning Timeline's time column.
struct Series {
  std::string family;  // registry metric name ("pool_util_pct")
  Labels labels;
  std::string name;    // rendered "family{k=\"v\"}", as cited in evidence
  std::vector<double> values;

  std::size_t size() const { return values.size(); }
};

/// The trial's time-series store. The testbed builds it once every probe is
/// registered and records it from its 1 s tick; readers look series up by
/// family and labels.
class Timeline {
 public:
  /// An empty store with no series.
  Timeline() = default;

  /// One column per counter and gauge registered on `registry` so far, in
  /// registration order, each reserved for `ticks` samples. Series
  /// registered later are not recorded.
  Timeline(const Registry& registry, std::size_t ticks);

  /// Read every series once at `now`, in registration order, and append the
  /// values. Only valid while the registry the store was built over lives.
  void record(sim::SimTime now);

  /// Move the columns out into a store that no longer refers to the
  /// registry (RunResult::series outlives the trial's registry), leaving
  /// this one empty.
  Timeline take();

  std::size_t size() const { return series_.size(); }
  std::size_t ticks() const { return times_.size(); }
  const std::vector<sim::SimTime>& times() const { return times_; }
  const Series& operator[](std::size_t i) const { return series_[i]; }
  std::vector<Series>::const_iterator begin() const { return series_.begin(); }
  std::vector<Series>::const_iterator end() const { return series_.end(); }

  /// Series `family{labels}`, or nullptr when it is not recorded.
  const Series* find_series(const std::string& family,
                            const Labels& labels = {}) const;

  /// Samples of `s` with lo <= t < hi, oldest first.
  std::span<const double> window(const Series& s, sim::SimTime lo,
                                 sim::SimTime hi) const;
  /// Mean of window(s, lo, hi), summed oldest first; 0 when empty.
  double mean_between(const Series& s, sim::SimTime lo,
                      sim::SimTime hi) const;
  /// Mean of series `i` over the trailing window [newest - window_s,
  /// newest], summed newest first; 0 when nothing is recorded.
  double trailing_mean(std::size_t i, double window_s) const;

 private:
  std::vector<Reader> readers_;  // one per series while recording
  std::vector<sim::SimTime> times_;
  std::vector<Series> series_;
};

}  // namespace softres::obs
