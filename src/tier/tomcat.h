#pragma once

#include "hw/link.h"
#include "hw/node.h"
#include "jvm/jvm.h"
#include "soft/pool.h"
#include "tier/cjdbc.h"
#include "tier/request.h"
#include "tier/server.h"

namespace softres::tier {

/// Apache Tomcat application-server model.
///
/// Two soft resources gate a servlet's execution: the worker *thread pool*
/// (one thread per in-flight request; under-allocating it is the Section
/// III-A bottleneck) and the server-wide *DB connection pool* (the paper's
/// modified RUBBoS shares one global pool across servlets; a request holds
/// one connection for its whole DB phase, per Fig 9).
class TomcatServer : public Server {
 public:
  TomcatServer(sim::Simulator& sim, std::string name, hw::Node& node,
               jvm::JvmConfig jvm_config, std::size_t threads,
               std::size_t db_connections, CJdbcServer& cjdbc,
               hw::Link& down_link, hw::Link& up_link,
               double alloc_per_request_mb);

  /// Process one dynamic request inside its Apache visit; ends in
  /// ApacheServer::on_tomcat_reply when the response leaves this server. The
  /// caller (an Apache worker) blocks in our thread-pool queue until a Tomcat
  /// thread picks the request up — that queue is exactly the "waiting for a
  /// Tomcat connection" state of Figs 7–8.
  void submit(Request* r);

  /// Return path of one query's C-JDBC visit: CJdbcServer::query ends here
  /// once the result is back in the middleware.
  static void on_query_reply(Request* r);

  soft::Pool& thread_pool() { return threads_; }
  const soft::Pool& thread_pool() const { return threads_; }
  soft::Pool& connection_pool() { return db_conns_; }
  const soft::Pool& connection_pool() const { return db_conns_; }

  jvm::Jvm& jvm() { return jvm_; }
  const jvm::Jvm& jvm() const { return jvm_; }
  hw::Node& node() { return node_; }
  const hw::Node& node() const { return node_; }

  /// Fraction of servlet CPU spent before the DB phase.
  static constexpr double kPreDbCpuFraction = 0.7;

  /// Registers the thread pool (kAppThreads) and DB connection pool
  /// (kDbConnections), plus a post-resize hook that keeps the JVM's
  /// live-thread count equal to their summed capacities — growing the pools
  /// is how the §III-B GC over-allocation cost gets charged.
  void register_soft_resources(soft::ResizablePoolSet& set) override;

 private:
  // Stages of a request's residence and its query loop (state in
  // req->tomcat_visit); static so the hot-path callbacks capture nothing but
  // the Request*.
  static void on_thread(Request* r);
  static void finish_visit(Request* r);
  static void query_loop_step(Request* r);

  hw::Node& node_;
  jvm::Jvm jvm_;
  soft::Pool threads_;
  soft::Pool db_conns_;
  CJdbcServer& cjdbc_;
  hw::Link& down_link_;  // to C-JDBC
  hw::Link& up_link_;    // from C-JDBC
  double alloc_per_request_mb_;
};

}  // namespace softres::tier
