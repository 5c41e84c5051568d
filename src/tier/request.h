#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/sim_time.h"
#include "soft/pool_guard.h"
#include "support/prof.h"

namespace softres::tier {

class ApacheServer;
class TomcatServer;
class CJdbcServer;
class MySqlServer;

enum class RequestKind {
  kDynamic,  // servlet interaction (hits Tomcat, C-JDBC, MySQL)
  kStatic,   // embedded static content (served from Apache's cache)
};

/// One HTTP request travelling down the invocation chain. The workload
/// generator samples the per-tier demands when the interaction is chosen so
/// servers stay policy-free.
///
/// A trial holds thousands of these at the paper's operating points (Fig 5
/// at 7800 users peaks at ~4.5k live requests), so the byte count matters:
/// fields are ordered so the header carries no padding, and state that only
/// a traced span reads lives in the separately allocated Trace block.
struct Request {
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kDynamic;
  int interaction = 0;  // index into the RUBBoS interaction table
  /// Issuing tenant (index into the farm's tenant table; 0 in single-tenant
  /// trials). Rides the whole invocation chain so every soft-pool grant along
  /// the way is attributed to — and arbitrated for — the right tenant.
  std::uint32_t tenant = 0;
  int num_queries = 0;  // SQL queries this servlet issues

  // Sampled demands.
  double apache_demand_s = 0.0;  // HTTP parsing + response assembly
  double tomcat_demand_s = 0.0;  // servlet execution CPU (total, split 70/30
                                 // around the DB phase)
  double cjdbc_demand_s = 0.0;   // middleware CPU per query
  double mysql_demand_s = 0.0;   // database CPU per query
  double mysql_disk_prob = 0.0;  // probability a query misses cache -> disk
  double request_bytes = 512.0;
  double response_bytes = 8192.0;

  // Client-side timestamps (set by the client farm).
  sim::SimTime sent_at = 0.0;
  sim::SimTime completed_at = 0.0;

  /// One server visit of a traced request: [enter, leave) is the service
  /// residence (for a Tomcat visit this is the paper's T; the C-JDBC visits
  /// are its t1, t2 — Fig 9), annotated with the sub-phases the observability
  /// layer breaks latency into:
  ///  * queue_s      — wait for a pool unit (worker/servlet thread) *before*
  ///                   enter; the residence interval excludes it.
  ///  * conn_queue_s — in-residence wait for a downstream connection (the
  ///                   Tomcat DB-connection pool).
  ///  * gc_s         — stop-the-world freeze time of this server's JVM that
  ///                   overlapped the residence.
  ///  * fin_wait_s   — lingering-close FIN wait *after* leave (web tier); the
  ///                   worker stays bound but the response is already out, so
  ///                   this is part of worker busy time, not of response time.
  struct TraceSpan {
    std::string server;
    sim::SimTime enter = 0.0;
    sim::SimTime leave = 0.0;
    double queue_s = 0.0;
    double conn_queue_s = 0.0;
    double gc_s = 0.0;
    double fin_wait_s = 0.0;
    double duration() const { return leave - enter; }
  };

  /// Span storage for a sampled request. Tracing is off by default; the farm
  /// arms a deterministic 1-in-N subset by allocating this block. Servers on
  /// the hot path pay exactly one pointer-null check when tracing is off.
  struct Trace {
    std::vector<TraceSpan> spans;
    // Sub-phase marks of the visits in flight. Only a recorded span reads
    // them, so the untraced path never stores them.
    sim::SimTime apache_arrived = 0.0;     // joined Apache's worker queue
    sim::SimTime tomcat_arrived = 0.0;     // joined Tomcat's thread queue
    sim::SimTime conn_wait_started = 0.0;  // joined the DB-connection queue
    double conn_queue_s = 0.0;             // DB-connection wait
    double tomcat_gc0 = 0.0;  // JVM GC seconds when the Tomcat visit began
    double cjdbc_gc0 = 0.0;   // ... and when the C-JDBC visit began
  };
  std::unique_ptr<Trace> trace;

  bool traced() const { return trace != nullptr; }
  void enable_trace() {
    if (!trace) trace = std::make_unique<Trace>();
  }
  /// Spans of a traced request (empty vector when tracing is off).
  const std::vector<TraceSpan>& spans() const {
    static const std::vector<TraceSpan> kEmpty;
    return trace ? trace->spans : kEmpty;
  }

  void record_span(const std::string& server, sim::SimTime enter,
                   sim::SimTime leave, double queue_s = 0.0,
                   double conn_queue_s = 0.0, double gc_s = 0.0,
                   double fin_wait_s = 0.0) {
    if (!trace) return;
    trace->spans.push_back(
        TraceSpan{server, enter, leave, queue_s, conn_queue_s, gc_s,
                  fin_wait_s});
  }

  /// In-flight state of each tier's visit. Parking it here lets every stage
  /// callback capture a bare Request* (8 bytes, trivially copyable: always
  /// inline in InlineFunction) and recycles the storage with the request.
  ///
  /// Protocol: a tier fills its block on entry; the block is dead once the
  /// visit is over. A request has one owner, whoever acquired it from the
  /// RequestArena (the client farm in a trial), and it is released only
  /// after its response has been delivered, so every visit nests inside the
  /// owner's hold and no tier keeps the request alive itself. The inner
  /// tiers keep no continuation either: each returns to its one fixed caller
  /// through a direct static call (MySqlServer ->
  /// CJdbcServer::on_backend_reply, CJdbcServer ->
  /// TomcatServer::on_query_reply, TomcatServer ->
  /// ApacheServer::on_tomcat_reply) that reads the caller from the caller's
  /// own block. At most one visit per tier is in flight per request — the
  /// query loop is sequential — so one block per tier suffices.
  struct ClientHoldState {  // client farm: the owner's per-request state
    std::uint32_t user = 0;
    int statics_remaining = 0;
    ApacheServer* target = nullptr;
  } client_hold;
  struct ApacheVisitState {  // one page's Apache residence
    ApacheServer* server = nullptr;
    sim::SimTime worker_started = 0.0;
    sim::SimTime conn_started = 0.0;
    sim::InlineCallback responded;
    // The worker unit, adopted inside the acquire grant callback and
    // detached when the response leaves (lingering close keeps the worker
    // bound past the request's life; apache.cc releases it on FIN).
    soft::PoolGuard worker;
  } apache_visit;
  struct TomcatVisitState {  // one page's Tomcat residence
    TomcatServer* server = nullptr;
    sim::SimTime entered = 0.0;
    // The servlet thread and (for query-bearing requests) the DB
    // connection, adopted in their grant callbacks and released where the
    // corresponding phase ends (tomcat.cc).
    soft::PoolGuard thread;
    soft::PoolGuard db_conn;
    int remaining = 0;  // queries of the DB phase not yet answered
  } tomcat_visit;
  struct CJdbcVisitState {  // one query's C-JDBC residence
    CJdbcServer* server = nullptr;
    MySqlServer* backend = nullptr;
    sim::SimTime entered = 0.0;
  } cjdbc_visit;
  struct MySqlVisitState {  // one query's MySQL residence
    MySqlServer* server = nullptr;
    sim::SimTime entered = 0.0;
  } mysql_visit;

  /// Restore the sampled/recorded fields to their freshly-constructed state.
  /// Visit blocks are overwritten on entry, so only their owning members
  /// matter.
  void reset_for_reuse() {
    id = 0;
    kind = RequestKind::kDynamic;
    interaction = 0;
    tenant = 0;
    num_queries = 0;
    apache_demand_s = 0.0;
    tomcat_demand_s = 0.0;
    cjdbc_demand_s = 0.0;
    mysql_demand_s = 0.0;
    mysql_disk_prob = 0.0;
    request_bytes = 512.0;
    response_bytes = 8192.0;
    sent_at = 0.0;
    completed_at = 0.0;
    trace.reset();
    // The visit-block protocol guarantees a request at rest has empty
    // blocks; a populated one here means a tier leaked its in-flight state.
    assert(!apache_visit.responded);
    assert(!apache_visit.worker);
    assert(!tomcat_visit.thread && !tomcat_visit.db_conn);
  }
};

// The paper's operating points keep thousands of requests live per trial, so
// this size is a memory budget (perfbench reports it as mem.request_bytes).
static_assert(sizeof(Request) <= 296, "tier::Request outgrew its budget");

/// Freelist-backed pool of Request objects for one trial. Requests are
/// carved from fixed chunks of kChunk (stable addresses, one allocation per
/// chunk) and recycled through a LIFO freelist, so a trial touches the
/// allocator once per kChunk requests while the pool grows toward the
/// trial's peak concurrency and never after. Owned by exp::RunContext, which
/// declares it before the Simulator so it outlives everything that still
/// holds a Request* when a trial is torn down at its horizon.
///
/// Ownership is static: whoever acquire()s a request release()s it exactly
/// once, after the last tier is done with it. Requests never released (those
/// in flight at the horizon, the farm's traced requests) are destroyed with
/// the arena.
///
/// Not thread-safe by design — one arena per trial, one trial per thread.
class RequestArena {
 public:
  /// Requests per slab chunk.
  static constexpr std::size_t kChunk = 64;

  RequestArena() = default;
  RequestArena(const RequestArena&) = delete;
  RequestArena& operator=(const RequestArena&) = delete;
  ~RequestArena() {
    // A trial that stops at its horizon tears down with requests mid-flight
    // and deliberately abandons the pool units parked in them. They are
    // detached, not released: the pools live in the Testbed, which the run
    // tears down before this arena, and a release would also synchronously
    // grant a waiter mid-teardown.
    for (std::size_t i = 0; i < carved_; ++i) {
      Request& r = slot(i);
      r.apache_visit.worker.detach();
      r.tomcat_visit.thread.detach();
      r.tomcat_visit.db_conn.detach();
    }
  }

  /// A fresh (default-state) request; the caller owns it until release().
  Request* acquire() {
    SOFTRES_PROF_COUNT(kArenaAlloc);
    if (!free_.empty()) {
      Request* r = free_.back();
      free_.pop_back();
      return r;
    }
    if (carved_ % kChunk == 0) {
      chunks_.push_back(std::make_unique<Request[]>(kChunk));
    }
    return &slot(carved_++);
  }

  /// Reset `r` and return it to the freelist. No tier may touch it after.
  void release(Request* r) {
    r->reset_for_reuse();
    free_.push_back(r);
  }

  /// Slab high-water mark: distinct Request objects ever carved.
  std::size_t allocated() const { return carved_; }
  /// Requests currently sitting in the freelist.
  std::size_t free_count() const { return free_.size(); }

 private:
  Request& slot(std::size_t i) { return chunks_[i / kChunk][i % kChunk]; }

  std::vector<std::unique_ptr<Request[]>> chunks_;
  std::size_t carved_ = 0;
  std::vector<Request*> free_;
};

}  // namespace softres::tier
