#include "tier/apache.h"

#include <cassert>
#include <utility>

#include "soft/pool_set.h"

namespace softres::tier {

ApacheServer::ApacheServer(sim::Simulator& sim, std::string name,
                           hw::Node& node, std::size_t threads,
                           hw::Link& to_tomcat, hw::Link& from_tomcat,
                           hw::Link& to_client, net::TcpModel tcp,
                           LoadFn client_load)
    : Server(sim, std::move(name)), node_(node),
      workers_(sim, this->name() + ".workers", threads),
      to_tomcat_(to_tomcat), from_tomcat_(from_tomcat), to_client_(to_client),
      tcp_(std::move(tcp)), client_load_(std::move(client_load)) {
  assert(client_load_);
  set_profile_subsystem(prof::Subsystem::kApacheService);
}

void ApacheServer::handle(const RequestPtr& req, Callback responded) {
  // Residence state lives in the request (see Request::ApacheVisitState) so
  // the stage callbacks capture a bare Request* and stay inline.
  auto& v = req->apache_visit;
  v.self = req;
  v.server = this;
  v.arrived = sim().now();
  v.responded = std::move(responded);
  Request* r = req.get();
  workers_.acquire(
      [r] {
        // Adopt the grant into the request's guard before anything can exit:
        // from here every path pays the worker back exactly once (SR012).
        auto& av = r->apache_visit;
        av.worker.adopt(av.server->workers_, r->tenant);
        on_worker(r);
      },
      req->tenant);
}

void ApacheServer::on_worker(Request* r) {
  auto& v = r->apache_visit;
  ApacheServer* self = v.server;
  v.worker_started = self->sim().now();
  self->job_entered();

  // Parse the request.
  self->node_.cpu().submit(r->apache_demand_s * 0.5, [r] {
    auto& pv = r->apache_visit;
    ApacheServer* s = pv.server;
    if (r->kind == RequestKind::kStatic) {
      // Static files are cached in memory; no Tomcat round trip.
      respond(r);
      return;
    }
    // Proxy to a Tomcat instance (mod_jk-style balancing). The worker now
    // occupies or waits for a Tomcat connection until the response returns.
    assert(!s->tomcats_.empty());
    ++s->connecting_tomcat_;
    pv.conn_started = s->sim().now();
    TomcatServer* tomcat = s->tomcats_[s->next_tomcat_];
    s->next_tomcat_ = (s->next_tomcat_ + 1) % s->tomcats_.size();
    s->to_tomcat_.send(r->request_bytes, [tomcat, r] {
      tomcat->submit(RequestPtr(r), [r] {
        auto& tv = r->apache_visit;
        ApacheServer* ts = tv.server;
        ts->from_tomcat_.send(r->response_bytes, [r] {
          auto& fv = r->apache_visit;
          ApacheServer* fs = fv.server;
          --fs->connecting_tomcat_;
          fs->win_tomcat_sum_s_ += fs->sim().now() - fv.conn_started;
          ++fs->win_tomcat_n_;
          respond(r);
        });
      });
    });
  });
}

void ApacheServer::respond(Request* r) {
  // Assemble and write the response.
  ApacheServer* self = r->apache_visit.server;
  self->node_.cpu().submit(r->apache_demand_s * 0.5, [r] {
    auto& v = r->apache_visit;
    ApacheServer* s = v.server;
    const sim::SimTime entered = v.worker_started;
    const sim::SimTime worker_started = v.worker_started;
    const double queue_s = v.worker_started - v.arrived;
    Callback responded = std::move(v.responded);
    RequestPtr keep = std::move(v.self);  // alive until the span is recorded
    // Lingering close: the worker stays bound to the connection until the
    // client FINs — it outlives the request, which is recycled as soon as
    // `keep` drops. The guard therefore cannot ride in the FIN closure;
    // detach the unit and pay it back manually when the timer fires.
    // The tenant id must ride the FIN closure separately: detach() severs
    // the guard (and with it the tenant) from the unit.
    const std::uint32_t tenant = v.worker.tenant();
    soft::Pool* workers = v.worker.detach();
    s->to_client_.send(r->response_bytes, std::move(responded));
    s->job_left(entered);
    ++s->win_processed_;
    const double fin_delay = s->tcp_.sample_fin_delay(s->client_load_());
    r->record_span(s->name(), entered, s->sim().now(), queue_s,
                   /*conn_queue_s=*/0.0, /*gc_s=*/0.0, fin_delay);
    s->sim().schedule(fin_delay, [s, worker_started, workers, tenant] {
      const double busy = s->sim().now() - worker_started;
      s->win_busy_sum_s_ += busy;
      ++s->win_busy_n_;
      s->window_busy_stats_.add(busy);
      // The unit was detached from the request's PoolGuard in respond();
      // horizon teardown deliberately abandons units still inside the delay.
      // SOFTRES_LINT_ALLOW(SR012: lingering-close FIN release of a detached unit)
      workers->release(tenant);
    });
  });
}

void ApacheServer::reset_window_stats() {
  Server::reset_window_stats();
  window_busy_stats_.reset();
}

ApacheServer::TimelineSample ApacheServer::sample_window(sim::SimTime now) {
  if (now == cached_sample_time_) return cached_sample_;
  TimelineSample s;
  s.processed_requests = static_cast<double>(win_processed_);
  s.pt_total_ms =
      win_busy_n_ ? 1000.0 * win_busy_sum_s_ / static_cast<double>(win_busy_n_)
                  : 0.0;
  s.pt_tomcat_ms = win_tomcat_n_ ? 1000.0 * win_tomcat_sum_s_ /
                                       static_cast<double>(win_tomcat_n_)
                                 : 0.0;
  s.threads_active = static_cast<double>(workers_.in_use());
  s.threads_connecting = static_cast<double>(connecting_tomcat_);
  win_processed_ = 0;
  win_busy_sum_s_ = 0.0;
  win_busy_n_ = 0;
  win_tomcat_sum_s_ = 0.0;
  win_tomcat_n_ = 0;
  cached_sample_time_ = now;
  cached_sample_ = s;
  return s;
}

void ApacheServer::register_soft_resources(soft::ResizablePoolSet& set) {
  set.add(workers_, soft::PoolRole::kWebWorkers, /*floor=*/2);
}

}  // namespace softres::tier
