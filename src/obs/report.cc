#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

namespace softres::obs {
namespace {

std::string escape_html(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt(double v, int precision = 2) {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed << v;
  std::string s = os.str();
  // Trim trailing zeros (and a bare trailing dot) for compact labels.
  while (!s.empty() && s.find('.') != std::string::npos &&
         (s.back() == '0' || s.back() == '.')) {
    const bool dot = s.back() == '.';
    s.pop_back();
    if (dot) break;
  }
  return s.empty() ? "0" : s;
}

struct SvgScale {
  double t0 = 0.0, t1 = 1.0;   // time extent
  double v0 = 0.0, v1 = 1.0;   // value extent
  double w = 640.0, h = 90.0;  // pixel box
  double pad = 4.0;

  double x(double t) const {
    return pad + (t - t0) / std::max(t1 - t0, 1e-9) * (w - 2 * pad);
  }
  double y(double v) const {
    return h - pad - (v - v0) / std::max(v1 - v0, 1e-9) * (h - 2 * pad);
  }
};

void write_series_svg(std::ostream& os, const std::vector<sim::SimTime>& times,
                      const Series& s,
                      const std::vector<const EvidenceWindow*>& evidence,
                      const std::vector<const ReportMeta::ResizeMark*>& marks,
                      sim::SimTime t0, sim::SimTime t1) {
  const std::string& series = s.name;
  SvgScale sc;
  sc.t0 = t0;
  sc.t1 = t1;
  double lo = 0.0, hi = 1.0;
  for (const double v : s.values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  sc.v0 = lo;
  sc.v1 = hi <= lo ? lo + 1.0 : hi;

  os << "<svg viewBox=\"0 0 " << sc.w << " " << sc.h
     << "\" class=\"series\" role=\"img\" aria-label=\""
     << escape_html(series) << "\">\n";
  os << "  <rect x=\"0\" y=\"0\" width=\"" << sc.w << "\" height=\"" << sc.h
     << "\" class=\"bg\"/>\n";
  // Evidence windows first, shaded under the line.
  for (const EvidenceWindow* ev : evidence) {
    const double xa = sc.x(std::max(ev->from, t0));
    const double xb = sc.x(std::min(ev->to, t1));
    if (xb <= xa) continue;
    os << "  <rect x=\"" << fmt(xa) << "\" y=\"0\" width=\"" << fmt(xb - xa)
       << "\" height=\"" << sc.h << "\" class=\"evidence\"><title>"
       << escape_html(ev->condition) << "</title></rect>\n";
  }
  // Resize lanes: one vertical mark per applied capacity change on this
  // pool's series, so "capacity shrank" is visibly distinct from "load grew".
  for (const ReportMeta::ResizeMark* m : marks) {
    if (m->at < t0 || m->at > t1) continue;
    const double xm = sc.x(m->at);
    os << "  <line x1=\"" << fmt(xm) << "\" y1=\"0\" x2=\"" << fmt(xm)
       << "\" y2=\"" << sc.h << "\" class=\"resize\"><title>"
       << escape_html(m->pool) << " " << m->from << " -> " << m->to << " @ "
       << fmt(m->at, 0) << " s</title></line>\n";
  }
  if (s.size() >= 2) {
    os << "  <polyline class=\"line\" points=\"";
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (i > 0) os << " ";
      os << fmt(sc.x(times[i])) << "," << fmt(sc.y(s.values[i]));
    }
    os << "\"/>\n";
  }
  os << "  <text x=\"" << sc.pad + 2 << "\" y=\"12\" class=\"label\">"
     << escape_html(series) << "</text>\n";
  os << "  <text x=\"" << sc.w - sc.pad - 2
     << "\" y=\"12\" text-anchor=\"end\" class=\"label\">last "
     << fmt(s.values.empty() ? 0.0 : s.values.back()) << " | max "
     << fmt(sc.v1) << "</text>\n";
  os << "</svg>\n";
}

/// One exemplar request as a waterfall: a top row spanning the whole request
/// (sent -> completed) and one row per server visit, with the pool-queue wait
/// rendered as a separate segment ahead of the residence. Flat spans are
/// already enter-ordered, so nesting reads top-to-bottom like a call stack.
void write_waterfall_svg(std::ostream& os, const AssembledTrace& t,
                         const std::string& cohort) {
  const double rowh = 16.0;
  const double pad = 4.0;
  SvgScale sc;
  sc.t0 = t.sent_at;
  sc.t1 = std::max(t.completed_at, t.sent_at + 1e-9);
  sc.w = 640.0;
  sc.h = 2 * pad + rowh * static_cast<double>(t.spans.size() + 1);
  sc.pad = pad;
  os << "<svg viewBox=\"0 0 " << sc.w << " " << fmt(sc.h)
     << "\" class=\"waterfall\" role=\"img\" aria-label=\"request "
     << t.request_id << " waterfall\">\n";
  os << "  <rect x=\"0\" y=\"0\" width=\"" << sc.w << "\" height=\""
     << fmt(sc.h) << "\" class=\"bg\"/>\n";
  const double x0 = sc.x(t.sent_at);
  const double x1 = sc.x(t.completed_at);
  os << "  <rect x=\"" << fmt(x0) << "\" y=\"" << fmt(pad + 5)
     << "\" width=\"" << fmt(std::max(x1 - x0, 1.0)) << "\" height=\"4\""
     << " class=\"wnet\"><title>end-to-end "
     << fmt(1000.0 * t.response_time(), 1) << " ms</title></rect>\n";
  os << "  <text x=\"" << fmt(x0) << "\" y=\"" << fmt(pad + 2)
     << "\" class=\"label\" dominant-baseline=\"hanging\">" << cohort
     << " exemplar: request " << t.request_id << " — "
     << fmt(1000.0 * t.response_time(), 1) << " ms</text>\n";
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const tier::Request::TraceSpan& s = t.spans[i];
    const double ytop = pad + rowh * static_cast<double>(i + 1) + 2.0;
    const double hh = rowh - 4.0;
    if (s.queue_s > 0.0) {
      const double qa = sc.x(s.enter - s.queue_s);
      const double qb = sc.x(s.enter);
      os << "  <rect x=\"" << fmt(qa) << "\" y=\"" << fmt(ytop)
         << "\" width=\"" << fmt(std::max(qb - qa, 0.5)) << "\" height=\""
         << fmt(hh) << "\" class=\"wqueue\"><title>" << escape_html(s.server)
         << " queue " << fmt(1000.0 * s.queue_s, 1)
         << " ms</title></rect>\n";
    }
    const double ra = sc.x(s.enter);
    const double rb = sc.x(s.leave);
    os << "  <rect x=\"" << fmt(ra) << "\" y=\"" << fmt(ytop)
       << "\" width=\"" << fmt(std::max(rb - ra, 0.5)) << "\" height=\""
       << fmt(hh) << "\" class=\"wres\"><title>" << escape_html(s.server)
       << " residence " << fmt(1000.0 * s.duration(), 1) << " ms (conn wait "
       << fmt(1000.0 * s.conn_queue_s, 1) << ", gc " << fmt(1000.0 * s.gc_s, 1)
       << ")</title></rect>\n";
    os << "  <text x=\"" << fmt(std::min(ra, sc.w - 60.0) + 2) << "\" y=\""
       << fmt(ytop + hh - 3) << "\" class=\"wlabel\">"
       << escape_html(s.server) << "</text>\n";
  }
  os << "</svg>\n";
}

/// The "Why is the tail slow" section: cohort boundaries, the per-component
/// blame table with the p99+/p0-50 delta column, per-cohort SLO-miss
/// attribution, the diagnosis corroboration line, and the p99+ exemplar
/// waterfalls (when the caller supplied the trace collector).
void write_tail_section(std::ostream& os, const Diagnosis& diagnosis,
                        const TailAttribution& tail,
                        const TraceCollector* traces) {
  os << "<h2>Why is the tail slow</h2>\n";
  os << "<p>cohort boundaries over " << tail.requests
     << " traced request(s): p50 " << fmt(1000.0 * tail.p50_s, 1)
     << " ms, p95 " << fmt(1000.0 * tail.p95_s, 1) << " ms, p99 "
     << fmt(1000.0 * tail.p99_s, 1) << " ms (SLO "
     << fmt(tail.slo_threshold_s, 1) << " s)</p>\n";
  if (diagnosis.tail.present) {
    os << "<p><span class=\"verdict "
       << (diagnosis.tail.corroborates ? "bad" : "ok") << "\">"
       << escape_html(diagnosis.tail.text) << "</span></p>\n";
  }
  const TailAttribution::Cohort* p99 = tail.find_cohort("p99+");
  os << "<table>\n<tr><th>component</th>";
  for (const TailAttribution::Cohort& c : tail.cohorts) {
    os << "<th>" << escape_html(c.name) << " (ms)</th>";
  }
  os << "<th>p99+ / p0-50</th></tr>\n";
  for (std::size_t i = 0; i < tail.axis.size(); ++i) {
    os << "<tr><td><code>" << escape_html(tail.axis[i].label())
       << "</code></td>";
    for (const TailAttribution::Cohort& c : tail.cohorts) {
      os << "<td>"
         << (c.requests > 0 ? fmt(1000.0 * c.blame_s[i], 1) : std::string("—"))
         << "</td>";
    }
    const double delta =
        p99 != nullptr && p99->requests > 0 ? tail.delta_vs_base(i, *p99) : 0.0;
    os << "<td>" << (delta > 0.0 ? fmt(delta, 1) + "×" : std::string("—"))
       << "</td></tr>\n";
  }
  auto stat_row = [&os, &tail](const std::string& name, auto value) {
    os << "<tr><th>" << escape_html(name) << "</th>";
    for (const TailAttribution::Cohort& c : tail.cohorts) {
      os << "<td>" << value(c) << "</td>";
    }
    os << "<td>—</td></tr>\n";
  };
  stat_row("requests", [](const TailAttribution::Cohort& c) {
    return std::to_string(c.requests);
  });
  stat_row("mean rt (ms)", [](const TailAttribution::Cohort& c) {
    return fmt(1000.0 * c.mean_rt_s, 1);
  });
  stat_row("SLO misses", [](const TailAttribution::Cohort& c) {
    return std::to_string(c.slo_misses);
  });
  stat_row("miss share", [](const TailAttribution::Cohort& c) {
    return fmt(100.0 * c.slo_miss_share, 1) + "%";
  });
  os << "</table>\n";

  if (traces != nullptr && p99 != nullptr && !p99->exemplars.empty()) {
    for (std::uint64_t id : p99->exemplars) {
      for (const AssembledTrace& t : traces->traces()) {
        if (t.request_id == id) {
          write_waterfall_svg(os, t, p99->name);
          break;
        }
      }
    }
  }
}

const char* kCss = R"css(
  body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
         max-width: 60em; color: #222; }
  h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
  table { border-collapse: collapse; margin: 0.6em 0; }
  th, td { border: 1px solid #ccc; padding: 0.25em 0.6em; text-align: left; }
  th { background: #f2f2f2; }
  .verdict { padding: 0.5em 0.8em; border-radius: 4px; display: inline-block;
             font-weight: 600; }
  .verdict.bad { background: #fde8e8; color: #8a1f1f; }
  .verdict.ok { background: #e6f4ea; color: #1c5e31; }
  svg.series { display: block; width: 100%; height: 90px; margin: 0.4em 0;
               border: 1px solid #ddd; }
  svg .bg { fill: #fcfcfc; }
  svg .evidence { fill: #e05252; fill-opacity: 0.22; }
  svg .resize { stroke: #c07b1a; stroke-width: 1; stroke-dasharray: 3 2; }
  svg .line { fill: none; stroke: #2a6fb0; stroke-width: 1.5; }
  svg .label { font: 11px monospace; fill: #444; }
  svg.waterfall { display: block; width: 100%; height: auto; margin: 0.4em 0;
                  border: 1px solid #ddd; }
  svg .wnet { fill: #888; }
  svg .wqueue { fill: #e0a030; }
  svg .wres { fill: #2a6fb0; fill-opacity: 0.8; }
  svg .wlabel { font: 10px monospace; fill: #fff; }
  code { background: #f5f5f5; padding: 0 0.25em; }
)css";

}  // namespace

void write_flight_recorder_html(std::ostream& os, const ReportMeta& meta,
                                const Timeline& timeline,
                                const Diagnosis& diagnosis,
                                const LatencyBreakdown* breakdown,
                                const ProfileSnapshot* profile,
                                const TailAttribution* tail,
                                const TraceCollector* traces) {
  const bool healthy = diagnosis.pathology == Pathology::kNone;
  os << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
     << "<title>" << escape_html(meta.title) << " — flight recorder</title>\n"
     << "<style>" << kCss << "</style>\n</head>\n<body>\n";
  os << "<h1>" << escape_html(meta.title) << "</h1>\n";

  // Header: trial identity.
  os << "<table>\n";
  auto row = [&os](const std::string& k, const std::string& v) {
    os << "<tr><th>" << escape_html(k) << "</th><td>" << escape_html(v)
       << "</td></tr>\n";
  };
  if (!meta.topology.empty()) row("topology", meta.topology);
  if (!meta.allocation.empty()) row("allocation", meta.allocation);
  if (!meta.workload.empty()) row("workload", meta.workload);
  row("measure window",
      "[" + fmt(meta.measure_start, 0) + " s, " + fmt(meta.measure_end, 0) +
          " s]");
  for (const auto& kv : meta.extra) row(kv.first, kv.second);
  os << "</table>\n";

  // Diagnosis.
  os << "<h2>Diagnosis</h2>\n";
  os << "<p><span class=\"verdict " << (healthy ? "ok" : "bad") << "\">"
     << pathology_name(diagnosis.pathology) << "</span> &nbsp;confidence "
     << fmt(diagnosis.confidence) << "</p>\n";
  if (!diagnosis.implicated_resources.empty()) {
    os << "<p>implicated:";
    for (const std::string& r : diagnosis.implicated_resources) {
      os << " <code>" << escape_html(r) << "</code>";
    }
    os << "</p>\n";
  }
  if (!diagnosis.suggested_action.text.empty()) {
    os << "<p>suggested: " << escape_html(diagnosis.suggested_action.text)
       << "</p>\n";
  }
  if (!diagnosis.evidence.empty()) {
    os << "<table>\n<tr><th>series</th><th>from (s)</th><th>to (s)</th>"
       << "<th>observed</th><th>threshold</th><th>condition</th></tr>\n";
    for (const EvidenceWindow& ev : diagnosis.evidence) {
      os << "<tr><td><code>" << escape_html(ev.series) << "</code></td><td>"
         << fmt(ev.from, 0) << "</td><td>" << fmt(ev.to, 0) << "</td><td>"
         << fmt(ev.observed) << "</td><td>" << fmt(ev.threshold)
         << "</td><td>" << escape_html(ev.condition) << "</td></tr>\n";
    }
    os << "</table>\n";
  }

  // Timelines: one lane per recorded series over the store's shared time
  // column, so windows line up vertically across series.
  os << "<h2>Timelines</h2>\n";
  const std::vector<sim::SimTime>& times = timeline.times();
  const sim::SimTime t0 = times.empty() ? 0.0 : times.front();
  const sim::SimTime t1 =
      times.empty() || times.back() <= t0 ? t0 + 1.0 : times.back();
  auto render = [&](const Series& s) {
    std::vector<const EvidenceWindow*> shaded;
    for (const EvidenceWindow& ev : diagnosis.evidence) {
      if (ev.series == s.name) shaded.push_back(&ev);
    }
    std::vector<const ReportMeta::ResizeMark*> marks;
    for (const ReportMeta::ResizeMark& m : meta.resizes) {
      for (const auto& kv : s.labels) {
        if (kv.first == "pool" && kv.second == m.pool) {
          marks.push_back(&m);
          break;
        }
      }
    }
    write_series_svg(os, times, s, shaded, marks, t0, t1);
  };
  auto tenant_of = [](const Series& s) -> std::string {
    for (const auto& kv : s.labels) {
      if (kv.first == "tenant") return kv.second;
    }
    return "";
  };
  // Shared (tenant-less) series first; tenant-labelled ones are grouped into
  // one lane per tenant below so each tenant's goodput/badput/share read as
  // a unit against the shared pool picture above them.
  for (const Series& s : timeline) {
    if (tenant_of(s).empty()) render(s);
  }
  std::vector<std::string> tenant_order;
  for (const Series& s : timeline) {
    const std::string t = tenant_of(s);
    if (t.empty()) continue;
    if (std::find(tenant_order.begin(), tenant_order.end(), t) ==
        tenant_order.end()) {
      tenant_order.push_back(t);
    }
  }
  for (const std::string& tname : tenant_order) {
    os << "<h2>Tenant " << escape_html(tname) << "</h2>\n";
    for (const Series& s : timeline) {
      if (tenant_of(s) == tname) render(s);
    }
  }

  // Governor resize log (present when the trial resized pools live).
  if (!meta.resizes.empty()) {
    os << "<h2>Pool resizes</h2>\n";
    os << "<table>\n<tr><th>time (s)</th><th>pool</th><th>from</th>"
       << "<th>to</th></tr>\n";
    for (const ReportMeta::ResizeMark& m : meta.resizes) {
      os << "<tr><td>" << fmt(m.at, 0) << "</td><td><code>"
         << escape_html(m.pool) << "</code></td><td>" << m.from << "</td><td>"
         << m.to << "</td></tr>\n";
    }
    os << "</table>\n";
  }

  // Latency breakdown (present when the trial traced requests).
  if (breakdown != nullptr && !breakdown->rows.empty()) {
    os << "<h2>Latency breakdown</h2>\n";
    os << "<table>\n<tr><th>tier</th><th>visits</th><th>queue (ms)</th>"
       << "<th>service (ms)</th><th>conn wait (ms)</th><th>gc (ms)</th>"
       << "<th>fin wait (ms)</th><th>residence (ms)</th></tr>\n";
    for (const LatencyBreakdown::Row& r : breakdown->rows) {
      os << "<tr><td>" << escape_html(r.tier) << "</td><td>"
         << fmt(r.visits) << "</td><td>" << fmt(r.queue_ms) << "</td><td>"
         << fmt(r.service_ms) << "</td><td>" << fmt(r.conn_wait_ms)
         << "</td><td>" << fmt(r.gc_ms) << "</td><td>" << fmt(r.fin_wait_ms)
         << "</td><td>" << fmt(r.residence_ms) << "</td></tr>\n";
    }
    os << "<tr><th>network / other</th><td colspan=\"7\">"
       << fmt(breakdown->network_other_ms) << " ms</td></tr>\n";
    os << "<tr><th>mean response time</th><td colspan=\"7\">"
       << fmt(breakdown->mean_rt_ms) << " ms over " << breakdown->requests
       << " traced request(s)</td></tr>\n";
    os << "</table>\n";
  }

  // Tail attribution (present when the trial traced requests): the cohort
  // blame table and the p99+ exemplar waterfalls.
  if (tail != nullptr && !tail->empty()) {
    write_tail_section(os, diagnosis, *tail, traces);
  }

  // Self-profiler footer (present when the trial ran with SOFTRES_PROFILE).
  if (profile != nullptr && profile->enabled) {
    os << "<p class=\"footer\">"
       << escape_html(one_line_profile_summary(*profile)) << "</p>\n";
  }

  os << "</body>\n</html>\n";
}

bool write_flight_recorder_html(const std::string& path,
                                const ReportMeta& meta,
                                const Timeline& timeline,
                                const Diagnosis& diagnosis,
                                const LatencyBreakdown* breakdown,
                                const ProfileSnapshot* profile,
                                const TailAttribution* tail,
                                const TraceCollector* traces) {
  std::ofstream file(path);
  if (!file) return false;
  write_flight_recorder_html(file, meta, timeline, diagnosis, breakdown,
                             profile, tail, traces);
  return file.good();
}

}  // namespace softres::obs
