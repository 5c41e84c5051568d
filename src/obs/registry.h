#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/sim_time.h"

namespace softres::obs {

/// Label set of a metric, Prometheus-style: {{"node","tomcat0"}}. Order is
/// preserved as given; two metrics are the same series iff name and rendered
/// labels match exactly.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

namespace detail {
struct Metric {
  std::string name;
  Labels labels;
  std::string help;
  MetricKind kind = MetricKind::kGauge;

  double value = 0.0;                    // counter/gauge storage
  std::function<double(sim::SimTime)> source;  // pull metrics (polled)

  std::vector<double> bounds;            // histogram bucket upper bounds
  std::vector<std::uint64_t> bucket_counts;  // bounds.size() + 1 (+Inf)
  double sum = 0.0;
  std::uint64_t count = 0;

  /// Pull sources are evaluated at most once per timestamp: rate-style
  /// sources differentiate a cumulative counter against their previous call,
  /// so a second same-tick caller (e.g. the end-of-trial snapshot taken at
  /// the instant of the last Timeline tick) would otherwise see dt = 0.
  /// Every same-instant reader gets the first evaluation's value.
  mutable sim::SimTime cached_at = -1.0;
  mutable double cached = 0.0;

  double read(sim::SimTime now) const {
    if (!source) return value;
    if (now != cached_at) {
      cached = source(now);
      cached_at = now;
    }
    return cached;
  }
};
}  // namespace detail

/// Monotonically increasing value (events, completions). Handles are cheap
/// copies; a default-constructed handle is a no-op sink.
class Counter {
 public:
  Counter() = default;
  void inc(double d = 1.0) {
    if (m_ != nullptr) m_->value += d;
  }
  double value() const { return m_ != nullptr ? m_->value : 0.0; }

 private:
  friend class Registry;
  explicit Counter(detail::Metric* m) : m_(m) {}
  detail::Metric* m_ = nullptr;
};

/// Instantaneous value set by the instrumented component.
class Gauge {
 public:
  Gauge() = default;
  void set(double v) {
    if (m_ != nullptr) m_->value = v;
  }
  void add(double d) {
    if (m_ != nullptr) m_->value += d;
  }
  double value() const { return m_ != nullptr ? m_->value : 0.0; }

 private:
  friend class Registry;
  explicit Gauge(detail::Metric* m) : m_(m) {}
  detail::Metric* m_ = nullptr;
};

/// Cumulative-bucket histogram (Prometheus semantics: bucket i counts
/// observations <= bounds[i]; an implicit +Inf bucket catches the rest).
class Histogram {
 public:
  Histogram() = default;
  void observe(double x);
  std::uint64_t count() const { return m_ != nullptr ? m_->count : 0; }
  double sum() const { return m_ != nullptr ? m_->sum : 0.0; }

 private:
  friend class Registry;
  explicit Histogram(detail::Metric* m) : m_(m) {}
  detail::Metric* m_ = nullptr;
};

/// Read-only handle on one registered series: evaluates the pull source (or
/// returns the stored value) without snapshotting the whole registry. This is
/// what obs::Timeline reads every sampling tick — one cheap read per series
/// instead of a full Snapshot. A default-constructed Reader reads 0.
class Reader {
 public:
  Reader() = default;
  bool valid() const { return m_ != nullptr; }
  double read(sim::SimTime now) const { return m_ != nullptr ? m_->read(now) : 0.0; }
  /// Identity of the series (valid readers only).
  const std::string& name() const { return m_->name; }
  const Labels& labels() const { return m_->labels; }

 private:
  friend class Registry;
  explicit Reader(const detail::Metric* m) : m_(m) {}
  const detail::Metric* m_ = nullptr;
};

/// Point-in-time copy of one metric, with pull sources already evaluated.
struct MetricSample {
  std::string name;
  Labels labels;
  std::string help;
  MetricKind kind = MetricKind::kGauge;
  double value = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;
  double sum = 0.0;
  std::uint64_t count = 0;
};

/// Frozen view of the whole registry at one instant.
struct Snapshot {
  sim::SimTime at = 0.0;
  std::vector<MetricSample> metrics;

  const MetricSample* find(const std::string& name,
                           const Labels& labels = {}) const;
};

/// Render "name{k=\"v\",...}" (bare name when labels are empty).
std::string render_series(const std::string& name, const Labels& labels);

/// Prometheus text exposition (one HELP/TYPE block per metric family).
void write_prometheus(std::ostream& os, const Snapshot& snap);

/// Flat CSV: metric,labels,kind,value (histograms expand to one row per
/// cumulative bucket plus _sum/_count).
void write_csv(std::ostream& os, const Snapshot& snap);

/// The one place every probe in the system registers: labeled counters,
/// gauges (stored or polled) and histograms, with a snapshot API and
/// Prometheus and CSV exporters. obs::Timeline records every counter and
/// gauge once per sampling tick.
///
/// Handles returned by the factories stay valid for the registry's lifetime.
/// Registering an already-existing (name, labels) pair returns the same
/// underlying metric.
class Registry {
 public:
  using Source = std::function<double(sim::SimTime)>;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter counter(const std::string& name, Labels labels = {},
                  const std::string& help = "");
  Gauge gauge(const std::string& name, Labels labels = {},
              const std::string& help = "");
  Histogram histogram(const std::string& name, std::vector<double> bounds,
                      Labels labels = {}, const std::string& help = "");

  /// Polled gauge: `source` is evaluated at snapshot/sampling time.
  void gauge_fn(const std::string& name, Source source, Labels labels = {},
                const std::string& help = "");
  /// Polled counter (cumulative source, e.g. total completions).
  void counter_fn(const std::string& name, Source source, Labels labels = {},
                  const std::string& help = "");

  /// Readers on every counter and gauge registered so far, in registration
  /// order; histograms have no scalar value and are skipped. These are the
  /// columns of an obs::Timeline.
  std::vector<Reader> series() const;

  /// Reset every stored value — counters, gauges, histogram buckets, sums and
  /// counts — to zero while keeping registrations, pull sources and handles
  /// intact. A registry reused across back-to-back trials must call
  /// this between trials or the second trial's histograms (and counters)
  /// continue accumulating on top of the first's.
  void reset_values();

  /// Evaluate every metric (pull sources included) at `now`.
  Snapshot snapshot(sim::SimTime now) const;

  void write_prometheus(std::ostream& os, sim::SimTime now) const;
  void write_csv(std::ostream& os, sim::SimTime now) const;

  std::size_t size() const { return metrics_.size(); }

 private:
  detail::Metric* find_or_add(const std::string& name, Labels labels,
                              const std::string& help, MetricKind kind);

  std::vector<std::unique_ptr<detail::Metric>> metrics_;
};

}  // namespace softres::obs
