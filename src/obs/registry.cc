#include "obs/registry.h"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace softres::obs {

void Histogram::observe(double x) {
  if (m_ == nullptr) return;
  for (std::size_t i = 0; i < m_->bounds.size(); ++i) {
    if (x <= m_->bounds[i]) {
      ++m_->bucket_counts[i];
      break;
    }
  }
  if (m_->bounds.empty() || x > m_->bounds.back()) {
    ++m_->bucket_counts.back();
  }
  m_->sum += x;
  ++m_->count;
}

const MetricSample* Snapshot::find(const std::string& name,
                                   const Labels& labels) const {
  for (const auto& m : metrics) {
    if (m.name == name && (labels.empty() || m.labels == labels)) return &m;
  }
  return nullptr;
}

std::string render_series(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  std::string out = name + "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + labels[i].second + "\"";
  }
  out += "}";
  return out;
}

namespace {

std::string fmt_value(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "gauge";
}

Labels with_le(const Labels& labels, const std::string& le) {
  Labels out = labels;
  out.emplace_back("le", le);
  return out;
}

/// Families in first-appearance order, each family's series sorted by label
/// key/value. Registration order of a family's series must not leak into the
/// exported text: two topologies that register tomcat0/tomcat1 probes in a
/// different order still produce byte-identical exports (the determinism
/// contract's unordered-iteration rule applied to our own output).
std::vector<const MetricSample*> export_order(const Snapshot& snap) {
  std::vector<std::string> family_order;
  for (const auto& m : snap.metrics) {
    if (std::find(family_order.begin(), family_order.end(), m.name) ==
        family_order.end()) {
      family_order.push_back(m.name);
    }
  }
  std::vector<const MetricSample*> out;
  out.reserve(snap.metrics.size());
  for (const auto& family : family_order) {
    const std::size_t family_begin = out.size();
    for (const auto& m : snap.metrics) {
      if (m.name == family) out.push_back(&m);
    }
    std::stable_sort(out.begin() + static_cast<std::ptrdiff_t>(family_begin),
                     out.end(),
                     [](const MetricSample* a, const MetricSample* b) {
                       return a->labels < b->labels;
                     });
  }
  return out;
}

}  // namespace

void write_prometheus(std::ostream& os, const Snapshot& snap) {
  // One HELP/TYPE block per family, families in first-appearance order,
  // series label-sorted within the family.
  std::string current_family;
  for (const MetricSample* mp : export_order(snap)) {
    const MetricSample& m = *mp;
    if (m.name != current_family) {
      current_family = m.name;
      if (!m.help.empty()) os << "# HELP " << m.name << " " << m.help << "\n";
      os << "# TYPE " << m.name << " " << kind_name(m.kind) << "\n";
    }
    if (m.kind != MetricKind::kHistogram) {
      os << render_series(m.name, m.labels) << " " << fmt_value(m.value)
         << "\n";
      continue;
    }
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < m.bounds.size(); ++i) {
      cumulative += m.bucket_counts[i];
      os << render_series(m.name + "_bucket",
                          with_le(m.labels, fmt_value(m.bounds[i])))
         << " " << cumulative << "\n";
    }
    cumulative += m.bucket_counts.back();
    os << render_series(m.name + "_bucket", with_le(m.labels, "+Inf")) << " "
       << cumulative << "\n";
    os << render_series(m.name + "_sum", m.labels) << " " << fmt_value(m.sum)
       << "\n";
    os << render_series(m.name + "_count", m.labels) << " " << m.count
       << "\n";
  }
}

void write_csv(std::ostream& os, const Snapshot& snap) {
  os << "metric,labels,kind,value\n";
  auto labels_cell = [](const Labels& labels) {
    std::string out;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) out += ";";
      out += labels[i].first + "=" + labels[i].second;
    }
    return out;
  };
  // Same family-then-label ordering as the Prometheus export, for the same
  // reason: CSV rows must not depend on probe registration order.
  for (const MetricSample* mp : export_order(snap)) {
    const MetricSample& m = *mp;
    if (m.kind != MetricKind::kHistogram) {
      os << m.name << "," << labels_cell(m.labels) << "," << kind_name(m.kind)
         << "," << fmt_value(m.value) << "\n";
      continue;
    }
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < m.bounds.size(); ++i) {
      cumulative += m.bucket_counts[i];
      os << m.name << "_bucket," << labels_cell(with_le(m.labels,
                                                        fmt_value(m.bounds[i])))
         << ",histogram," << cumulative << "\n";
    }
    cumulative += m.bucket_counts.back();
    os << m.name << "_bucket," << labels_cell(with_le(m.labels, "+Inf"))
       << ",histogram," << cumulative << "\n";
    os << m.name << "_sum," << labels_cell(m.labels) << ",histogram,"
       << fmt_value(m.sum) << "\n";
    os << m.name << "_count," << labels_cell(m.labels) << ",histogram,"
       << m.count << "\n";
  }
}

detail::Metric* Registry::find_or_add(const std::string& name, Labels labels,
                                      const std::string& help,
                                      MetricKind kind) {
  for (auto& m : metrics_) {
    if (m->name == name && m->labels == labels) return m.get();
  }
  auto m = std::make_unique<detail::Metric>();
  m->name = name;
  m->labels = std::move(labels);
  m->help = help;
  m->kind = kind;
  metrics_.push_back(std::move(m));
  return metrics_.back().get();
}

Counter Registry::counter(const std::string& name, Labels labels,
                          const std::string& help) {
  return Counter(find_or_add(name, std::move(labels), help,
                             MetricKind::kCounter));
}

Gauge Registry::gauge(const std::string& name, Labels labels,
                      const std::string& help) {
  return Gauge(find_or_add(name, std::move(labels), help, MetricKind::kGauge));
}

Histogram Registry::histogram(const std::string& name,
                              std::vector<double> bounds, Labels labels,
                              const std::string& help) {
  detail::Metric* m =
      find_or_add(name, std::move(labels), help, MetricKind::kHistogram);
  if (m->bucket_counts.empty()) {
    m->bounds = std::move(bounds);
    m->bucket_counts.assign(m->bounds.size() + 1, 0);
  }
  return Histogram(m);
}

void Registry::gauge_fn(const std::string& name, Source source, Labels labels,
                        const std::string& help) {
  find_or_add(name, std::move(labels), help, MetricKind::kGauge)->source =
      std::move(source);
}

void Registry::counter_fn(const std::string& name, Source source,
                          Labels labels, const std::string& help) {
  find_or_add(name, std::move(labels), help, MetricKind::kCounter)->source =
      std::move(source);
}

std::vector<Reader> Registry::series() const {
  std::vector<Reader> out;
  for (const auto& m : metrics_) {
    if (m->kind != MetricKind::kHistogram) out.push_back(Reader(m.get()));
  }
  return out;
}

void Registry::reset_values() {
  for (auto& m : metrics_) {
    m->value = 0.0;
    m->sum = 0.0;
    m->count = 0;
    m->cached_at = -1.0;
    m->cached = 0.0;
    std::fill(m->bucket_counts.begin(), m->bucket_counts.end(), 0);
  }
}

Snapshot Registry::snapshot(sim::SimTime now) const {
  Snapshot snap;
  snap.at = now;
  snap.metrics.reserve(metrics_.size());
  for (const auto& m : metrics_) {
    MetricSample s;
    s.name = m->name;
    s.labels = m->labels;
    s.help = m->help;
    s.kind = m->kind;
    s.value = m->read(now);
    s.bounds = m->bounds;
    s.bucket_counts = m->bucket_counts;
    s.sum = m->sum;
    s.count = m->count;
    snap.metrics.push_back(std::move(s));
  }
  return snap;
}

void Registry::write_prometheus(std::ostream& os, sim::SimTime now) const {
  obs::write_prometheus(os, snapshot(now));
}

void Registry::write_csv(std::ostream& os, sim::SimTime now) const {
  obs::write_csv(os, snapshot(now));
}

}  // namespace softres::obs
