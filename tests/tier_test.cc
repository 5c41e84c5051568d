#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "hw/link.h"
#include "hw/node.h"
#include "sim/simulator.h"
#include "tier/apache.h"
#include "tier/cjdbc.h"
#include "tier/mysql.h"
#include "tier/request.h"
#include "tier/tomcat.h"

namespace softres::tier {
namespace {

// Hand-wired miniature deployment: 1 Apache, 1 Tomcat, 1 C-JDBC, 1 MySQL.
// The test owns every request it makes; none is released, so each stays in
// the arena until the rig is torn down.
struct Rig {
  // Declared first so it is destroyed last, as in exp::RunContext: the
  // engine and the servers go while requests are still parked in them.
  RequestArena arena;
  sim::Simulator sim;
  hw::NodeSpec spec;
  std::unique_ptr<hw::Node> web_node, app_node, cm_node, db_node;
  std::unique_ptr<hw::Link> links[8];
  std::unique_ptr<MySqlServer> mysql;
  std::unique_ptr<CJdbcServer> cjdbc;
  std::unique_ptr<TomcatServer> tomcat;
  std::unique_ptr<ApacheServer> apache;
  double client_load = 0.0;

  explicit Rig(std::size_t apache_threads = 10, std::size_t tomcat_threads = 4,
               std::size_t conns = 4) {
    spec.cores = 1;
    spec.context_switch_coeff = 0.0;
    web_node = std::make_unique<hw::Node>(sim, "apache0", spec, sim::Rng(1));
    app_node = std::make_unique<hw::Node>(sim, "tomcat0", spec, sim::Rng(2));
    cm_node = std::make_unique<hw::Node>(sim, "cjdbc0", spec, sim::Rng(3));
    db_node = std::make_unique<hw::Node>(sim, "mysql0", spec, sim::Rng(4));
    for (auto& l : links) {
      l = std::make_unique<hw::Link>(sim, "link", 0.0001, 125e6);
    }
    mysql = std::make_unique<MySqlServer>(sim, "mysql0", *db_node, sim::Rng(5));
    cjdbc = std::make_unique<CJdbcServer>(sim, "cjdbc0", *cm_node,
                                          jvm::JvmConfig{}, *links[0],
                                          *links[1], 0.0);
    cjdbc->add_backend(*mysql);
    tomcat = std::make_unique<TomcatServer>(
        sim, "tomcat0", *app_node, jvm::JvmConfig{}, tomcat_threads, conns,
        *cjdbc, *links[2], *links[3], 0.0);
    net::TcpConfig tcp_cfg;
    tcp_cfg.fin_base_s = 0.0;
    tcp_cfg.enable_load_dependence = false;
    apache = std::make_unique<ApacheServer>(
        sim, "apache0", *web_node, apache_threads, *links[4], *links[5],
        *links[6], net::TcpModel(tcp_cfg, sim::Rng(6)),
        [this] { return client_load; });
    apache->add_tomcat(*tomcat);
  }

  Request* make_dynamic(int queries = 2) {
    Request* req = arena.acquire();
    req->kind = RequestKind::kDynamic;
    req->num_queries = queries;
    req->apache_demand_s = 0.0002;
    req->tomcat_demand_s = 0.002;
    req->cjdbc_demand_s = 0.0004;
    req->mysql_demand_s = 0.0005;
    req->mysql_disk_prob = 0.0;
    return req;
  }

  Request* make_static() {
    Request* req = arena.acquire();
    req->kind = RequestKind::kStatic;
    req->num_queries = 0;
    req->apache_demand_s = 0.0001;
    return req;
  }
};

TEST(TierTest, DynamicRequestTraversesAllTiers) {
  Rig rig;
  bool responded = false;
  rig.apache->handle(rig.make_dynamic(3), [&] { responded = true; });
  rig.sim.run();
  EXPECT_TRUE(responded);
  EXPECT_EQ(rig.apache->window_completed(), 1u);
  EXPECT_EQ(rig.tomcat->window_completed(), 1u);
  EXPECT_EQ(rig.cjdbc->window_completed(), 3u);  // one per query
  EXPECT_EQ(rig.mysql->window_completed(), 3u);
}

TEST(TierTest, StaticRequestServedFromCacheOnly) {
  Rig rig;
  bool responded = false;
  rig.apache->handle(rig.make_static(), [&] { responded = true; });
  rig.sim.run();
  EXPECT_TRUE(responded);
  EXPECT_EQ(rig.apache->window_completed(), 1u);
  EXPECT_EQ(rig.tomcat->window_completed(), 0u);
  EXPECT_EQ(rig.cjdbc->window_completed(), 0u);
}

TEST(TierTest, ResponseTimeIncludesAllDemands) {
  Rig rig;
  double rt = -1.0;
  const double t0 = rig.sim.now();
  rig.apache->handle(rig.make_dynamic(2), [&] { rt = rig.sim.now() - t0; });
  rig.sim.run();
  // Lower bound: sum of pure CPU demands.
  const double min_rt = 0.0002 + 0.002 + 2 * (0.0004 + 0.0005);
  EXPECT_GT(rt, min_rt);
  EXPECT_LT(rt, min_rt + 0.05);  // and not wildly above (links+disk only)
}

TEST(TierTest, TomcatThreadPoolLimitsConcurrency) {
  Rig rig(/*apache_threads=*/10, /*tomcat_threads=*/1, /*conns=*/4);
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    rig.apache->handle(rig.make_dynamic(1), [&] { ++done; });
  }
  rig.sim.run_until(0.001);
  // Only one request can be inside Tomcat.
  EXPECT_LE(rig.tomcat->thread_pool().in_use(), 1u);
  EXPECT_GE(rig.tomcat->thread_pool().waiting(), 1u);
  rig.sim.run();
  EXPECT_EQ(done, 5);
}

TEST(TierTest, ConnectionHeldForWholeQueryPhase) {
  Rig rig(/*apache_threads=*/10, /*tomcat_threads=*/4, /*conns=*/1);
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    rig.apache->handle(rig.make_dynamic(3), [&] { ++done; });
  }
  rig.sim.run_until(0.004);
  // With one connection, at most one request is in its DB phase; the C-JDBC
  // server must never see concurrent queries.
  EXPECT_LE(rig.cjdbc->window_avg_jobs(), 1.0 + 1e-9);
  rig.sim.run();
  EXPECT_EQ(done, 3);
}

TEST(TierTest, ApacheTracksThreadsConnectingTomcat) {
  Rig rig(/*apache_threads=*/10, /*tomcat_threads=*/1, /*conns=*/1);
  for (int i = 0; i < 4; ++i) {
    rig.apache->handle(rig.make_dynamic(1), [] {});
  }
  rig.sim.run_until(0.001);
  // All four workers are occupying or waiting for the single Tomcat slot.
  EXPECT_EQ(rig.apache->threads_connecting_tomcat(), 4u);
  rig.sim.run();
  EXPECT_EQ(rig.apache->threads_connecting_tomcat(), 0u);
}

TEST(TierTest, FinWaitHoldsWorkerAfterResponse) {
  Rig rig(/*apache_threads=*/1, 4, 4);
  net::TcpConfig tcp_cfg;
  tcp_cfg.fin_base_s = 1.0;  // huge FIN delay
  tcp_cfg.fin_sigma = 0.0;
  tcp_cfg.enable_load_dependence = false;
  // Rebuild apache with the slow-FIN stack.
  rig.apache = std::make_unique<ApacheServer>(
      rig.sim, "apache0", *rig.web_node, 1, *rig.links[4], *rig.links[5],
      *rig.links[6], net::TcpModel(tcp_cfg, sim::Rng(6)), [] { return 0.0; });
  rig.apache->add_tomcat(*rig.tomcat);

  double first_response = -1.0, second_response = -1.0;
  rig.apache->handle(rig.make_static(), [&] { first_response = rig.sim.now(); });
  rig.apache->handle(rig.make_static(), [&] { second_response = rig.sim.now(); });
  rig.sim.run();
  // The single worker is stuck in FIN wait for ~1 s after the first response,
  // so the second response lags by at least that.
  EXPECT_GT(second_response - first_response, 0.9);
}

TEST(TierTest, MySqlDiskHitAddsLatency) {
  Rig rig;
  Request* no_disk = rig.make_dynamic(1);
  no_disk->mysql_disk_prob = 0.0;
  Request* with_disk = rig.make_dynamic(1);
  with_disk->mysql_disk_prob = 1.0;
  double rt_no = -1, rt_disk = -1;
  double t0 = rig.sim.now();
  rig.apache->handle(no_disk, [&] { rt_no = rig.sim.now() - t0; });
  rig.sim.run();
  Rig rig2;
  t0 = rig2.sim.now();
  rig2.apache->handle(with_disk, [&] { rt_disk = rig2.sim.now() - t0; });
  rig2.sim.run();
  EXPECT_GT(rt_disk, rt_no + 0.001);  // at least ~a disk access more
}

TEST(TierTest, ServerStatsLittleLawConsistency) {
  Rig rig(20, 8, 8);
  rig.apache->reset_window_stats();
  rig.tomcat->reset_window_stats();
  int done = 0;
  // Closed loop of 4 clients hammering for a while.
  std::function<void()> issue = [&] {
    rig.apache->handle(rig.make_dynamic(2), [&] {
      ++done;
      if (rig.sim.now() < 10.0) issue();
    });
  };
  for (int i = 0; i < 4; ++i) issue();
  rig.sim.run();
  // L = X * R within tolerance for the Tomcat server.
  const double l = rig.tomcat->window_avg_jobs();
  const double x = rig.tomcat->window_completed() / rig.sim.now();
  const double r = rig.tomcat->window_mean_rt();
  EXPECT_NEAR(l, x * r, 0.15 * l + 0.01);
}

TEST(TierTest, TimelineSampleIdempotentPerInstant) {
  Rig rig;
  rig.apache->handle(rig.make_static(), [] {});
  rig.sim.run();
  auto s1 = rig.apache->sample_window(1.0);
  auto s2 = rig.apache->sample_window(1.0);  // same instant: cached
  EXPECT_EQ(s1.processed_requests, s2.processed_requests);
  auto s3 = rig.apache->sample_window(2.0);  // next instant: reset window
  EXPECT_EQ(s3.processed_requests, 0.0);
}

TEST(TierTest, RoundRobinAcrossTomcats) {
  Rig rig;
  // Second tomcat on its own node.
  hw::Node node2(rig.sim, "tomcat1", rig.spec, sim::Rng(7));
  TomcatServer tomcat2(rig.sim, "tomcat1", node2, jvm::JvmConfig{}, 4, 4,
                       *rig.cjdbc, *rig.links[2], *rig.links[3], 0.0);
  rig.apache->add_tomcat(tomcat2);
  int done = 0;
  for (int i = 0; i < 6; ++i) {
    rig.apache->handle(rig.make_dynamic(1), [&] { ++done; });
  }
  rig.sim.run();
  EXPECT_EQ(done, 6);
  EXPECT_EQ(rig.tomcat->window_completed(), 3u);
  EXPECT_EQ(tomcat2.window_completed(), 3u);
}

TEST(RequestArenaTest, CarvingPastAChunkKeepsEarlierRequestsInPlace) {
  RequestArena arena;
  const std::size_t n = 3 * RequestArena::kChunk + 5;
  std::vector<Request*> held;
  for (std::size_t i = 0; i < n; ++i) {
    held.push_back(arena.acquire());
    held.back()->id = i;
  }
  EXPECT_EQ(arena.allocated(), n);
  EXPECT_EQ(arena.free_count(), 0u);
  // Reads through the addresses taken before later chunks were carved: a
  // slab that relocated its requests would fail here (and under ASan, trap).
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(held[i]->id, i);
  EXPECT_EQ(std::set<Request*>(held.begin(), held.end()).size(), n);
  for (Request* r : held) arena.release(r);
  EXPECT_EQ(arena.free_count(), n);
  EXPECT_EQ(arena.allocated(), n);
}

TEST(RequestArenaTest, AllocatedCountsCarvedRequestsNotAcquires) {
  RequestArena arena;
  Request* a = arena.acquire();
  Request* b = arena.acquire();
  EXPECT_EQ(arena.allocated(), 2u);
  arena.release(a);
  arena.release(b);
  EXPECT_EQ(arena.free_count(), 2u);
  for (int i = 0; i < 10; ++i) {
    arena.release(arena.acquire());  // recycled, not carved
    EXPECT_EQ(arena.allocated(), 2u);
  }
  EXPECT_EQ(arena.free_count(), 2u);
}

TEST(RequestArenaTest, RecyclesLastInFirstOutAndResetsState) {
  RequestArena arena;
  Request* a = arena.acquire();
  Request* b = arena.acquire();
  Request* c = arena.acquire();
  b->id = 7;
  b->num_queries = 3;
  b->enable_trace();
  arena.release(a);
  arena.release(c);
  arena.release(b);  // freelist, oldest first: a, c, b
  Request* x = arena.acquire();
  Request* y = arena.acquire();
  Request* z = arena.acquire();
  EXPECT_EQ(x, b);
  EXPECT_EQ(y, c);
  EXPECT_EQ(z, a);
  EXPECT_EQ(x->id, 0u);
  EXPECT_EQ(x->num_queries, 0);
  EXPECT_FALSE(x->traced());
  EXPECT_EQ(arena.allocated(), 3u);
}

// A trial that stops at its horizon tears down with requests parked in every
// tier: waiting for an Apache worker, waiting for a Tomcat DB connection and
// queued at MySQL's disk. Destroying the engine and the servers, then the
// arena, must free what the requests hold without touching the dead pools.
// The ASan+UBSan build checks the memory side; the token checks that every
// parked `responded` callback was destroyed rather than leaked.
TEST(RequestArenaTest, HorizonTeardownWithRequestsParkedInEveryTier) {
  const auto token = std::make_shared<int>(0);
  {
    Rig rig(/*apache_threads=*/4, /*tomcat_threads=*/3, /*conns=*/2);
    for (int i = 0; i < 10; ++i) {
      Request* req = rig.make_dynamic(2);
      req->mysql_disk_prob = 1.0;
      if (i % 2 == 0) req->enable_trace();
      rig.apache->handle(req, [token] { ++*token; });
    }
    hw::Disk& disk = rig.db_node->disk();
    while (disk.queue_length() < 2 && rig.sim.step()) {
    }
    ASSERT_GE(disk.queue_length(), 2u);
    EXPECT_GT(rig.apache->worker_pool().waiting(), 0u);
    EXPECT_GT(rig.tomcat->thread_pool().waiting(), 0u);
    EXPECT_GT(rig.tomcat->connection_pool().waiting(), 0u);
    EXPECT_EQ(*token, 0);  // nothing has responded yet
    EXPECT_EQ(rig.arena.allocated(), 10u);
    EXPECT_EQ(rig.arena.free_count(), 0u);
    EXPECT_EQ(token.use_count(), 11);  // one per parked `responded`
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace softres::tier
