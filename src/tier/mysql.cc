#include "tier/mysql.h"

#include <utility>

#include "tier/cjdbc.h"

namespace softres::tier {

MySqlServer::MySqlServer(sim::Simulator& sim, std::string name, hw::Node& node,
                         sim::Rng rng)
    : Server(sim, std::move(name)), node_(node), rng_(rng) {
  set_profile_subsystem(prof::Subsystem::kMySqlService);
}

void MySqlServer::query(Request* r) {
  // Residence state lives in the request (see Request::MySqlVisitState) so
  // the stage callbacks below capture a bare Request* and stay inline.
  auto& v = r->mysql_visit;
  v.server = this;
  v.entered = sim().now();
  job_entered();
  const bool disk_hit = rng_.bernoulli(r->mysql_disk_prob);
  if (disk_hit) {
    node_.cpu().submit(r->mysql_demand_s, [r] {
      auto& mv = r->mysql_visit;
      mv.server->node_.disk().submit([r] { finish_query(r); });
    });
  } else {
    node_.cpu().submit(r->mysql_demand_s, [r] { finish_query(r); });
  }
}

void MySqlServer::finish_query(Request* r) {
  auto& v = r->mysql_visit;
  MySqlServer* self = v.server;
  self->job_left(v.entered);
  r->record_span(self->name(), v.entered, self->sim().now());
  CJdbcServer::on_backend_reply(r);
}

}  // namespace softres::tier
