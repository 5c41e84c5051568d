#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/sim_time.h"
#include "tier/request.h"

namespace softres::obs {

/// One node of an assembled span tree: a server visit plus the visits nested
/// inside its residence interval (the C-JDBC visits inside a Tomcat span,
/// the MySQL visit inside each C-JDBC span...).
struct SpanNode {
  tier::Request::TraceSpan span;
  std::vector<SpanNode> children;
};

/// A traced request with its spans assembled into a tree. Servers push spans
/// at *leave* time, so the raw list arrives deepest-first and out of order;
/// assembly orders by enter time and nests by interval containment.
struct AssembledTrace {
  std::uint64_t request_id = 0;
  int interaction = 0;
  sim::SimTime sent_at = 0.0;
  sim::SimTime completed_at = 0.0;
  std::vector<tier::Request::TraceSpan> spans;  // enter-ordered flat view
  std::vector<SpanNode> roots;

  double response_time() const { return completed_at - sent_at; }
};

/// Tier key of a server instance name: "tomcat0" -> "tomcat".
std::string tier_of(const std::string& server);

/// Assemble out-of-order spans into root span trees (stable under any
/// recording order; spans sharing an enter time nest outermost-first by
/// descending leave time).
std::vector<SpanNode> build_span_tree(
    std::vector<tier::Request::TraceSpan> spans);

/// Aggregate per-tier latency breakdown over a set of traced requests — the
/// reusable generalization of Fig 9. All values are per-request means in
/// milliseconds. `service_ms` is *exclusive* residence: the tier's own
/// residence minus GC freezes, connection-pool waits and the residence+queue
/// of nested downstream visits, so the rows of one request sum exactly to
/// its end-to-end response time once the network/client residual is added.
/// `fin_wait_ms` (web tier lingering close) happens after the response left
/// and is reported but *not* part of the response-time identity.
struct LatencyBreakdown {
  struct Row {
    std::string tier;
    double visits = 0.0;        // mean visits per request
    double queue_ms = 0.0;      // pool wait before entering
    double service_ms = 0.0;    // exclusive residence
    double conn_wait_ms = 0.0;  // in-residence wait for downstream conns
    double gc_ms = 0.0;         // stop-the-world freezes in residence
    double fin_wait_ms = 0.0;   // post-response lingering close
    double residence_ms = 0.0;  // mean total residence (inclusive)
  };
  std::vector<Row> rows;
  double network_other_ms = 0.0;  // links + client-side, the residual
  double mean_rt_ms = 0.0;        // mean end-to-end response time
  std::size_t requests = 0;

  /// Sum of all per-tier components plus the residual; equals mean_rt_ms up
  /// to floating-point rounding (the acceptance identity).
  double accounted_ms() const;

  const Row* find(const std::string& tier) const;
  void print(std::ostream& os) const;
};

/// Per-request critical-path blame: the request-level refinement of
/// LatencyBreakdown. Each component attributes seconds of the request's
/// response time to a (tier, kind) pair, where kind is one of "queue" |
/// "service" | "conn_wait" | "gc", plus one final tier-less "network"
/// component for the link/client residual. The components are produced by the
/// same telescoping walk as LatencyBreakdown (exclusive service = residence
/// minus GC, conn waits and nested visits), so they sum to response_time()
/// exactly — the accounted_ms() identity at per-request granularity. FIN-wait
/// time is post-response and deliberately absent.
struct BlameVector {
  struct Component {
    std::string tier;      // "tomcat"; empty for the network residual
    std::string kind;      // "queue" | "service" | "conn_wait" | "gc" | "network"
    double seconds = 0.0;

    /// "tomcat.queue" — the shared vocabulary of tail cohorts and reports.
    std::string label() const { return tier.empty() ? kind : tier + "." + kind; }
  };
  std::uint64_t request_id = 0;
  double response_time_s = 0.0;
  std::vector<Component> components;  // canonical tier order, network last

  /// Sum of every component; equals response_time_s up to rounding.
  double total_s() const;
  /// Component by label ("tomcat.queue", "network"); nullptr when absent.
  const Component* component(const std::string& label) const;
};

/// Walk one assembled trace into its blame vector. Tiers follow the canonical
/// {apache, tomcat, cjdbc, mysql} order with unknown tiers appended on first
/// appearance; tiers the request never visited are omitted.
BlameVector blame(const AssembledTrace& trace);

/// Consumes traced requests, assembles span trees, and exports Chrome
/// `trace_event` JSON (loadable in Perfetto / chrome://tracing) plus the
/// aggregate per-tier latency breakdown.
class TraceCollector {
 public:
  /// Add one completed traced request; requests that are untraced, never
  /// completed, or carry no spans are skipped (returns false).
  bool add(const tier::Request& req);

  /// Bulk-add (e.g. workload::ClientFarm::traced_requests()); returns the
  /// number of requests actually collected.
  std::size_t collect(const std::vector<const tier::Request*>& requests);

  const std::vector<AssembledTrace>& traces() const { return traces_; }
  std::size_t size() const { return traces_.size(); }

  LatencyBreakdown breakdown() const;

  /// Chrome trace_event JSON: one "X" (complete) event per span, plus
  /// explicit queue and FIN-wait phases; pid = tier, tid = request id,
  /// timestamps in microseconds of simulation time.
  void write_chrome_trace(std::ostream& os) const;

 private:
  std::vector<AssembledTrace> traces_;
};

}  // namespace softres::obs
