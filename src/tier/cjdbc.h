#pragma once

#include <vector>

#include "hw/link.h"
#include "hw/node.h"
#include "jvm/jvm.h"
#include "tier/mysql.h"
#include "tier/request.h"
#include "tier/server.h"

namespace softres::tier {

/// C-JDBC clustering middleware model.
///
/// Every upstream Tomcat DB connection maps 1:1 to a request-handling thread
/// here (and to a thread in the chosen MySQL server), so the middleware's
/// concurrency — and its JVM live-thread count, hence GC cost — is set
/// entirely by the Tomcat connection-pool allocation. This is the coupling
/// that makes DB-connection over-allocation collapse C-JDBC throughput in
/// Section III-B.
class CJdbcServer : public Server {
 public:
  CJdbcServer(sim::Simulator& sim, std::string name, hw::Node& node,
              jvm::JvmConfig jvm_config, hw::Link& down_link,
              hw::Link& up_link, double alloc_per_query_mb);

  void add_backend(MySqlServer& db) { backends_.push_back(&db); }

  /// Route one SQL query of a Tomcat visit to a backend; ends in
  /// TomcatServer::on_query_reply when the result has travelled back up to
  /// this server.
  void query(Request* r);

  /// Return path of a query's MySQL visit: MySqlServer::query ends here once
  /// the result is ready to ship.
  static void on_backend_reply(Request* r);

  /// Total upstream DB connections = live request-handling threads. Called by
  /// the testbed builder after the soft configuration is applied.
  void set_upstream_connections(std::size_t n) { jvm_.set_live_threads(n); }

  jvm::Jvm& jvm() { return jvm_; }
  const jvm::Jvm& jvm() const { return jvm_; }
  hw::Node& node() { return node_; }
  const hw::Node& node() const { return node_; }

 private:
  // Closes one query's residence (state in req->cjdbc_visit); static so the
  // hot-loop callbacks capture nothing but the Request*.
  static void finish_query(Request* r);

  hw::Node& node_;
  jvm::Jvm jvm_;
  hw::Link& down_link_;  // to MySQL tier
  hw::Link& up_link_;    // back from MySQL tier
  double alloc_per_query_mb_;
  std::vector<MySqlServer*> backends_;
  std::size_t next_backend_ = 0;
};

}  // namespace softres::tier
