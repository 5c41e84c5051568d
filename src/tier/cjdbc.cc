#include "tier/cjdbc.h"

#include <cassert>
#include <utility>

#include "tier/tomcat.h"

namespace softres::tier {

CJdbcServer::CJdbcServer(sim::Simulator& sim, std::string name, hw::Node& node,
                         jvm::JvmConfig jvm_config, hw::Link& down_link,
                         hw::Link& up_link, double alloc_per_query_mb)
    : Server(sim, std::move(name)), node_(node),
      jvm_(sim, node.cpu(), jvm_config, this->name() + ".jvm"),
      down_link_(down_link), up_link_(up_link),
      alloc_per_query_mb_(alloc_per_query_mb) {
  set_profile_subsystem(prof::Subsystem::kCJdbcService);
}

void CJdbcServer::query(Request* r) {
  assert(!backends_.empty());
  // Residence state lives in the request (see Request::CJdbcVisitState) so
  // the stage callbacks below capture a bare Request* and stay inline.
  auto& v = r->cjdbc_visit;
  v.server = this;
  v.entered = sim().now();
  if (r->trace) r->trace->cjdbc_gc0 = jvm_.total_gc_seconds();
  job_entered();

  // Query parsing + routing consumes middleware CPU; the JVM charges each
  // query's allocations against the shared young generation.
  jvm_.allocate(alloc_per_query_mb_);
  const double demand = r->cjdbc_demand_s * jvm_.runtime_overhead_factor();

  v.backend = backends_[next_backend_];
  next_backend_ = (next_backend_ + 1) % backends_.size();

  node_.cpu().submit(demand, [this, r] {
    down_link_.send(r->request_bytes,
                    [r] { r->cjdbc_visit.backend->query(r); });
  });
}

void CJdbcServer::on_backend_reply(Request* r) {
  CJdbcServer* self = r->cjdbc_visit.server;
  self->up_link_.send(r->response_bytes * 0.25, [r] { finish_query(r); });
}

void CJdbcServer::finish_query(Request* r) {
  auto& v = r->cjdbc_visit;
  CJdbcServer* self = v.server;
  self->job_left(v.entered);
  if (r->trace) {
    r->record_span(self->name(), v.entered, self->sim().now(),
                   /*queue_s=*/0.0, /*conn_queue_s=*/0.0,
                   self->jvm_.total_gc_seconds() - r->trace->cjdbc_gc0);
  }
  TomcatServer::on_query_reply(r);
}

}  // namespace softres::tier
