#pragma once

#include "hw/link.h"
#include "hw/node.h"
#include "sim/rng.h"
#include "tier/request.h"
#include "tier/server.h"

namespace softres::tier {

/// MySQL database server model. One worker thread per upstream connection
/// executes a query: CPU demand, plus a disk access on buffer-cache misses.
/// Concurrency is bounded upstream (the C-JDBC thread that owns the
/// connection issues one query at a time), matching the paper's one
/// connection = one MySQL thread observation.
class MySqlServer : public Server {
 public:
  MySqlServer(sim::Simulator& sim, std::string name, hw::Node& node,
              sim::Rng rng);

  /// Execute one SQL query of a C-JDBC visit; ends in
  /// CJdbcServer::on_backend_reply when the result is ready to ship.
  void query(Request* r);

  hw::Node& node() { return node_; }
  const hw::Node& node() const { return node_; }

 private:
  // Closes one query's residence (state in req->mysql_visit); static so the
  // hot-loop callbacks capture nothing but the Request*.
  static void finish_query(Request* r);

  hw::Node& node_;
  sim::Rng rng_;
};

}  // namespace softres::tier
