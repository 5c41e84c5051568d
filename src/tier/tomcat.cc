#include "tier/tomcat.h"

#include <utility>

#include "soft/pool_set.h"
#include "tier/apache.h"

namespace softres::tier {

TomcatServer::TomcatServer(sim::Simulator& sim, std::string name,
                           hw::Node& node, jvm::JvmConfig jvm_config,
                           std::size_t threads, std::size_t db_connections,
                           CJdbcServer& cjdbc, hw::Link& down_link,
                           hw::Link& up_link, double alloc_per_request_mb)
    : Server(sim, std::move(name)), node_(node),
      jvm_(sim, node.cpu(), jvm_config, this->name() + ".jvm"),
      threads_(sim, this->name() + ".threads", threads),
      db_conns_(sim, this->name() + ".dbconns", db_connections),
      cjdbc_(cjdbc), down_link_(down_link), up_link_(up_link),
      alloc_per_request_mb_(alloc_per_request_mb) {
  // Idle threads and pooled connections consume heap whether used or not.
  jvm_.set_live_threads(threads + db_connections);
  set_profile_subsystem(prof::Subsystem::kTomcatService);
}

void TomcatServer::submit(Request* r) {
  // Residence state lives in the request (see Request::TomcatVisitState) so
  // the stage callbacks capture a bare Request* and stay inline.
  r->tomcat_visit.server = this;
  if (r->trace) r->trace->tomcat_arrived = sim().now();
  threads_.acquire(
      [r] {
        // Adopt the grant into the request's guard before anything can exit:
        // from here every path pays the thread back exactly once (SR012).
        auto& tv = r->tomcat_visit;
        tv.thread.adopt(tv.server->threads_, r->tenant);
        on_thread(r);
      },
      r->tenant);
}

void TomcatServer::on_thread(Request* r) {
  auto& v = r->tomcat_visit;
  TomcatServer* self = v.server;
  v.entered = self->sim().now();
  if (r->trace) r->trace->tomcat_gc0 = self->jvm_.total_gc_seconds();
  self->job_entered();
  self->jvm_.allocate(self->alloc_per_request_mb_);
  const double pre_demand = r->tomcat_demand_s * kPreDbCpuFraction *
                            self->jvm_.runtime_overhead_factor();

  self->node_.cpu().submit(pre_demand, [r] {
    TomcatServer* s = r->tomcat_visit.server;
    if (r->num_queries <= 0) {
      finish_visit(r);
      return;
    }
    // Hold one DB connection for the entire query phase (Fig 9).
    if (r->trace) r->trace->conn_wait_started = s->sim().now();
    s->db_conns_.acquire(
        [r] {
          auto& cv = r->tomcat_visit;
          TomcatServer* cs = cv.server;
          cv.db_conn.adopt(cs->db_conns_, r->tenant);
          if (r->trace) {
            r->trace->conn_queue_s =
                cs->sim().now() - r->trace->conn_wait_started;
          }
          cv.remaining = r->num_queries;
          query_loop_step(r);
        },
        r->tenant);
  });
}

// The post-DB CPU phase; closes the span and releases the servlet thread.
void TomcatServer::finish_visit(Request* r) {
  auto& v = r->tomcat_visit;
  TomcatServer* self = v.server;
  const double post_demand = r->tomcat_demand_s * (1.0 - kPreDbCpuFraction) *
                             self->jvm_.runtime_overhead_factor();
  self->node_.cpu().submit(post_demand, [r] {
    auto& fv = r->tomcat_visit;
    TomcatServer* s = fv.server;
    s->job_left(fv.entered);
    if (r->trace) {
      const Request::Trace& t = *r->trace;
      r->record_span(s->name(), fv.entered, s->sim().now(),
                     fv.entered - t.tomcat_arrived, t.conn_queue_s,
                     s->jvm_.total_gc_seconds() - t.tomcat_gc0);
    }
    // The thread goes back first — its release may grant a queued request
    // synchronously — and only then does the response head for Apache.
    fv.thread.release();
    ApacheServer::on_tomcat_reply(r);
  });
}

void TomcatServer::register_soft_resources(soft::ResizablePoolSet& set) {
  set.add(threads_, soft::PoolRole::kAppThreads, /*floor=*/2);
  set.add(db_conns_, soft::PoolRole::kDbConnections, /*floor=*/2);
  set.add_post_resize_hook([this] {
    jvm_.set_live_threads(threads_.capacity() + db_conns_.capacity());
  });
}

// One step of the DB phase: send the next query to C-JDBC, which answers
// through on_query_reply(); once every query is answered, give the
// connection back and run the post-DB CPU phase.
void TomcatServer::query_loop_step(Request* r) {
  auto& v = r->tomcat_visit;
  if (v.remaining <= 0) {
    v.db_conn.release();
    finish_visit(r);
    return;
  }
  TomcatServer* self = v.server;
  self->down_link_.send(r->request_bytes,
                        [self, r] { self->cjdbc_.query(r); });
}

void TomcatServer::on_query_reply(Request* r) {
  TomcatServer* self = r->tomcat_visit.server;
  self->up_link_.send(r->response_bytes * 0.25, [r] {
    --r->tomcat_visit.remaining;
    query_loop_step(r);
  });
}

}  // namespace softres::tier
