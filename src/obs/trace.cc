#include "obs/trace.h"

#include <algorithm>
#include <limits>
#include <ostream>

#include "metrics/table.h"

namespace softres::obs {

namespace {
constexpr double kEps = 1e-12;
}  // namespace

std::string tier_of(const std::string& server) {
  std::size_t end = server.size();
  while (end > 0 && std::isdigit(static_cast<unsigned char>(server[end - 1]))) {
    --end;
  }
  return server.substr(0, end);
}

std::vector<SpanNode> build_span_tree(
    std::vector<tier::Request::TraceSpan> spans) {
  // Enter-ascending; ties put the outermost (longest) interval first.
  std::sort(spans.begin(), spans.end(),
            [](const tier::Request::TraceSpan& a,
               const tier::Request::TraceSpan& b) {
              if (a.enter != b.enter) return a.enter < b.enter;
              return a.leave > b.leave;
            });
  // Parent of span i = the tightest span whose interval contains it. Traces
  // are a handful of spans, so the quadratic scan beats anything clever.
  const std::size_t n = spans.size();
  std::vector<int> parent(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    double best_span = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const bool contains = spans[j].enter <= spans[i].enter + kEps &&
                            spans[j].leave >= spans[i].leave - kEps &&
                            spans[j].duration() >= spans[i].duration() - kEps;
      if (!contains) continue;
      // Identical intervals: nest the later-sorted one inside the earlier.
      if (spans[j].duration() >= best_span) continue;
      if (spans[j].enter == spans[i].enter &&
          spans[j].leave == spans[i].leave && j > i) {
        continue;
      }
      parent[i] = static_cast<int>(j);
      best_span = spans[j].duration();
    }
  }
  // Assemble bottom-up: children are already enter-ordered by the sort.
  std::vector<SpanNode> nodes(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i].span = spans[i];
  std::vector<SpanNode> roots;
  // Attach children in reverse so a node is complete before its parent copies
  // it (children always sort after their parent).
  for (std::size_t k = n; k-- > 0;) {
    if (parent[k] >= 0) {
      auto& siblings = nodes[static_cast<std::size_t>(parent[k])].children;
      siblings.insert(siblings.begin(), std::move(nodes[k]));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (parent[i] < 0) roots.push_back(std::move(nodes[i]));
  }
  return roots;
}

bool TraceCollector::add(const tier::Request& req) {
  if (!req.traced() || req.trace->spans.empty() || req.completed_at <= 0.0) {
    return false;
  }
  AssembledTrace t;
  t.request_id = req.id;
  t.interaction = req.interaction;
  t.sent_at = req.sent_at;
  t.completed_at = req.completed_at;
  t.spans = req.trace->spans;
  std::sort(t.spans.begin(), t.spans.end(),
            [](const tier::Request::TraceSpan& a,
               const tier::Request::TraceSpan& b) {
              if (a.enter != b.enter) return a.enter < b.enter;
              return a.leave > b.leave;
            });
  t.roots = build_span_tree(t.spans);
  traces_.push_back(std::move(t));
  return true;
}

std::size_t TraceCollector::collect(
    const std::vector<const tier::Request*>& requests) {
  std::size_t added = 0;
  for (const tier::Request* req : requests) {
    if (req != nullptr && add(*req)) ++added;
  }
  return added;
}

namespace {

struct TierAccum {
  double visits = 0.0;
  double queue_s = 0.0;
  double service_s = 0.0;
  double conn_wait_s = 0.0;
  double gc_s = 0.0;
  double fin_wait_s = 0.0;
  double residence_s = 0.0;
};

void accumulate(const SpanNode& node,
                std::vector<std::pair<std::string, TierAccum>>& tiers) {
  const auto& s = node.span;
  double children_s = 0.0;
  for (const auto& child : node.children) {
    children_s += child.span.queue_s + child.span.duration();
    accumulate(child, tiers);
  }
  const std::string tier = tier_of(s.server);
  auto it = std::find_if(tiers.begin(), tiers.end(),
                         [&](const auto& kv) { return kv.first == tier; });
  if (it == tiers.end()) {
    tiers.emplace_back(tier, TierAccum{});
    it = tiers.end() - 1;
  }
  TierAccum& acc = it->second;
  acc.visits += 1.0;
  acc.queue_s += s.queue_s;
  acc.conn_wait_s += s.conn_queue_s;
  acc.gc_s += s.gc_s;
  acc.fin_wait_s += s.fin_wait_s;
  acc.residence_s += s.duration();
  // Exclusive service: residence minus everything separately attributed.
  // Telescopes so that per-request rows + network residual == response time.
  acc.service_s += s.duration() - s.gc_s - s.conn_queue_s - children_s;
}

/// Canonical tier seeding shared by blame() and breakdown(): the paper's four
/// tiers lead in topology order, anything else lands on first appearance.
std::vector<std::pair<std::string, TierAccum>> seeded_tiers() {
  std::vector<std::pair<std::string, TierAccum>> tiers;
  for (const char* t : {"apache", "tomcat", "cjdbc", "mysql"}) {
    tiers.emplace_back(t, TierAccum{});
  }
  return tiers;
}

}  // namespace

BlameVector blame(const AssembledTrace& trace) {
  BlameVector out;
  out.request_id = trace.request_id;
  out.response_time_s = trace.response_time();
  auto tiers = seeded_tiers();
  double root_s = 0.0;
  for (const auto& root : trace.roots) {
    root_s += root.span.queue_s + root.span.duration();
    accumulate(root, tiers);
  }
  for (const auto& [tier, acc] : tiers) {
    if (acc.visits == 0.0) continue;
    out.components.push_back({tier, "queue", acc.queue_s});
    out.components.push_back({tier, "service", acc.service_s});
    out.components.push_back({tier, "conn_wait", acc.conn_wait_s});
    out.components.push_back({tier, "gc", acc.gc_s});
  }
  // The residual telescopes the identity shut: per-tier (queue + service +
  // conn_wait + gc) sums to root_s, and root_s + network == response time.
  out.components.push_back({"", "network", trace.response_time() - root_s});
  return out;
}

double BlameVector::total_s() const {
  double sum = 0.0;
  for (const auto& c : components) sum += c.seconds;
  return sum;
}

const BlameVector::Component* BlameVector::component(
    const std::string& label) const {
  for (const auto& c : components) {
    if (c.label() == label) return &c;
  }
  return nullptr;
}

LatencyBreakdown TraceCollector::breakdown() const {
  LatencyBreakdown out;
  out.requests = traces_.size();
  if (traces_.empty()) return out;

  auto tiers = seeded_tiers();
  double rt_sum = 0.0;
  double network_sum = 0.0;
  for (const auto& trace : traces_) {
    rt_sum += trace.response_time();
    double root_s = 0.0;
    for (const auto& root : trace.roots) {
      root_s += root.span.queue_s + root.span.duration();
      accumulate(root, tiers);
    }
    network_sum += trace.response_time() - root_s;
  }
  const double n = static_cast<double>(traces_.size());
  for (auto& [tier, acc] : tiers) {
    if (acc.visits == 0.0) continue;
    LatencyBreakdown::Row row;
    row.tier = tier;
    row.visits = acc.visits / n;
    row.queue_ms = 1000.0 * acc.queue_s / n;
    row.service_ms = 1000.0 * acc.service_s / n;
    row.conn_wait_ms = 1000.0 * acc.conn_wait_s / n;
    row.gc_ms = 1000.0 * acc.gc_s / n;
    row.fin_wait_ms = 1000.0 * acc.fin_wait_s / n;
    row.residence_ms = 1000.0 * acc.residence_s / n;
    out.rows.push_back(row);
  }
  out.mean_rt_ms = 1000.0 * rt_sum / n;
  out.network_other_ms = 1000.0 * network_sum / n;
  return out;
}

double LatencyBreakdown::accounted_ms() const {
  double sum = network_other_ms;
  for (const auto& r : rows) {
    sum += r.queue_ms + r.service_ms + r.conn_wait_ms + r.gc_ms;
  }
  return sum;
}

const LatencyBreakdown::Row* LatencyBreakdown::find(
    const std::string& tier) const {
  for (const auto& r : rows) {
    if (r.tier == tier) return &r;
  }
  return nullptr;
}

void LatencyBreakdown::print(std::ostream& os) const {
  metrics::Table t({"tier", "visits", "queue_ms", "service_ms", "conn_wait_ms",
                    "gc_ms", "fin_wait_ms", "residence_ms"});
  for (const auto& r : rows) {
    t.add_row({r.tier, metrics::Table::fmt(r.visits, 2),
               metrics::Table::fmt(r.queue_ms, 3),
               metrics::Table::fmt(r.service_ms, 3),
               metrics::Table::fmt(r.conn_wait_ms, 3),
               metrics::Table::fmt(r.gc_ms, 3),
               metrics::Table::fmt(r.fin_wait_ms, 3),
               metrics::Table::fmt(r.residence_ms, 3)});
  }
  t.print(os);
  os << "network/client: " << metrics::Table::fmt(network_other_ms, 3)
     << " ms   accounted: " << metrics::Table::fmt(accounted_ms(), 3)
     << " ms   mean RT: " << metrics::Table::fmt(mean_rt_ms, 3) << " ms   ("
     << requests << " traced requests; FIN wait is post-response and "
     << "excluded from the sum)\n";
}

namespace {

void write_event(std::ostream& os, bool& first, const std::string& name,
                 const std::string& cat, double ts_s, double dur_s, int pid,
                 std::uint64_t tid, const std::string& extra_args) {
  if (!first) os << ",\n";
  first = false;
  os << "{\"name\":\"" << name << "\",\"cat\":\"" << cat
     << "\",\"ph\":\"X\",\"ts\":" << ts_s * 1e6 << ",\"dur\":" << dur_s * 1e6
     << ",\"pid\":" << pid << ",\"tid\":" << tid << ",\"args\":{" << extra_args
     << "}}";
}

void write_span(std::ostream& os, bool& first, const SpanNode& node,
                std::uint64_t tid, int interaction,
                std::vector<std::string>& tiers) {
  const auto& s = node.span;
  const std::string tier = tier_of(s.server);
  auto it = std::find(tiers.begin(), tiers.end(), tier);
  if (it == tiers.end()) {
    tiers.push_back(tier);
    it = tiers.end() - 1;
  }
  const int pid = static_cast<int>(it - tiers.begin()) + 1;
  if (s.queue_s > 0.0) {
    write_event(os, first, s.server + " queue", "queue", s.enter - s.queue_s,
                s.queue_s, pid, tid, "");
  }
  write_event(os, first, s.server, "residence", s.enter, s.duration(), pid,
              tid,
              "\"interaction\":" + std::to_string(interaction) +
                  ",\"queue_ms\":" + std::to_string(s.queue_s * 1000.0) +
                  ",\"conn_wait_ms\":" +
                  std::to_string(s.conn_queue_s * 1000.0) +
                  ",\"gc_ms\":" + std::to_string(s.gc_s * 1000.0));
  if (s.fin_wait_s > 0.0) {
    write_event(os, first, s.server + " fin-wait", "fin_wait", s.leave,
                s.fin_wait_s, pid, tid, "");
  }
  for (const auto& child : node.children) {
    write_span(os, first, child, tid, interaction, tiers);
  }
}

}  // namespace

void TraceCollector::write_chrome_trace(std::ostream& os) const {
  const auto old_precision = os.precision(15);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  std::vector<std::string> tiers;
  for (const auto& trace : traces_) {
    for (const auto& root : trace.roots) {
      write_span(os, first, root, trace.request_id, trace.interaction, tiers);
    }
  }
  // Name the per-tier "processes" so Perfetto groups spans by tier.
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << i + 1
       << ",\"args\":{\"name\":\"" << tiers[i] << "\"}}";
  }
  os << "\n]}\n";
  os.precision(old_precision);
}

}  // namespace softres::obs
