#pragma once

#include <vector>

#include "hw/link.h"
#include "hw/node.h"
#include "net/tcp.h"
#include "soft/pool.h"
#include "tier/request.h"
#include "tier/server.h"
#include "tier/tomcat.h"

namespace softres::tier {

/// Apache HTTP server model (worker MPM, keepalive off).
///
/// A worker thread owns a connection from accept to the end of the lingering
/// close: parse, proxy to Tomcat (dynamic) or serve from the in-memory cache
/// (static), write the response, then *wait for the client's FIN*. Under
/// high workload that FIN wait balloons (net::TcpModel), so a small worker
/// pool ends up with most threads parked in teardown and only a trickle
/// reaching Tomcat — the Section III-C anti-buffering collapse where back-end
/// CPU utilization falls as workload rises.
class ApacheServer : public Server {
 public:
  using Callback = sim::InlineCallback;
  using LoadFn = sim::InlineFunction<double()>;

  ApacheServer(sim::Simulator& sim, std::string name, hw::Node& node,
               std::size_t threads, hw::Link& to_tomcat,
               hw::Link& from_tomcat, hw::Link& to_client,
               net::TcpModel tcp, LoadFn client_load);

  void add_tomcat(TomcatServer& t) { tomcats_.push_back(&t); }

  /// Process one HTTP request; `responded` fires when the response has been
  /// delivered to the client (the worker is then still tied up in the FIN
  /// wait). The caller owns `r` and must keep it alive until `responded`
  /// fires; no tier touches it after that.
  void handle(Request* r, Callback responded);

  /// Return path of a dynamic request's Tomcat visit: TomcatServer::submit
  /// ends here once the servlet's response leaves Tomcat.
  static void on_tomcat_reply(Request* r);

  soft::Pool& worker_pool() { return workers_; }
  const soft::Pool& worker_pool() const { return workers_; }
  hw::Node& node() { return node_; }
  const hw::Node& node() const { return node_; }

  /// Workers currently occupying or waiting for a Tomcat connection
  /// (Threads_connectingTomcat in Figs 7/8).
  std::size_t threads_connecting_tomcat() const { return connecting_tomcat_; }

  /// Mean worker busy time per request over the measurement window,
  /// including the lingering-close FIN wait. This is the "RTT" that sizes
  /// the web tier: a worker thread is unavailable for exactly this long.
  double window_mean_busy_s() const { return window_busy_stats_.mean(); }

  void reset_window_stats() override;

  /// Registers the worker pool (role kWebWorkers). A worker-pool floor of 2
  /// keeps the accept path alive through aggressive drains.
  void register_soft_resources(soft::ResizablePoolSet& set) override;

  /// One row of the Fig 7/8 timeline; resets the per-interval accumulators.
  /// Idempotent per sampling instant so independent probes may each call it.
  struct TimelineSample {
    double processed_requests = 0.0;   // completed in the interval
    double pt_total_ms = 0.0;          // mean worker busy time per request
    double pt_tomcat_ms = 0.0;         // mean time occupying/waiting Tomcat
    double threads_active = 0.0;       // busy workers at sampling instant
    double threads_connecting = 0.0;   // of which in the Tomcat interaction
  };
  TimelineSample sample_window(sim::SimTime now);

 private:
  // Stages of a request's residence (state in req->apache_visit); static so
  // the hot-path callbacks capture nothing but the Request*.
  static void on_worker(Request* r);
  static void respond(Request* r);

  hw::Node& node_;
  soft::Pool workers_;
  std::vector<TomcatServer*> tomcats_;
  std::size_t next_tomcat_ = 0;
  hw::Link& to_tomcat_;
  hw::Link& from_tomcat_;
  hw::Link& to_client_;
  net::TcpModel tcp_;
  LoadFn client_load_;
  std::size_t connecting_tomcat_ = 0;

  sim::Welford window_busy_stats_;  // worker busy times, measurement window

  // Per-interval accumulators backing sample_window().
  double win_busy_sum_s_ = 0.0;
  std::size_t win_busy_n_ = 0;
  double win_tomcat_sum_s_ = 0.0;
  std::size_t win_tomcat_n_ = 0;
  std::size_t win_processed_ = 0;
  sim::SimTime cached_sample_time_ = -1.0;
  TimelineSample cached_sample_;
};

}  // namespace softres::tier
