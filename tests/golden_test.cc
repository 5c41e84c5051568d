// Behaviour lock: one 64-bit digest per paper anchor trial, committed below.
// A refactor that keeps every digest keeps the program; one that moves a
// digest must explain why. Each anchor runs at seed 42 on the benches'
// compressed schedule (or bench_governor's scenario schedule). The digest
// covers what perfbench's digest_result covers, every evidence window, every
// response-time sample, and one hash over every registry series' per-tick
// values that depends neither on series names nor on registration order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "soft/partition.h"
#include "workload/load_shapes.h"

namespace softres::exp {
namespace {

/// FNV-1a over field values and the bit patterns of doubles (the scheme of
/// perfbench's Digest).
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// The fields perfbench's digest_result covers.
void digest_result(Digest& d, const RunResult& r) {
  d.add(r.hw.to_string());
  d.add(r.soft.to_string());
  d.add(static_cast<std::uint64_t>(r.users));
  d.add(r.trial_seed);
  d.add(r.throughput);
  d.add(static_cast<std::uint64_t>(r.response_times.count()));
  d.add(r.response_times.mean());
  for (const CpuStat& c : r.cpus) {
    d.add(c.name);
    d.add(c.util_pct);
    d.add(c.gc_util_pct);
  }
  for (const PoolStat& p : r.pools) {
    d.add(p.name);
    d.add(static_cast<std::uint64_t>(p.capacity));
    d.add(p.util_pct);
    d.add(p.mean_wait_ms);
    d.add(static_cast<std::uint64_t>(p.saturated));
  }
  for (const ServerOps& s : r.servers) {
    d.add(s.name);
    d.add(s.throughput);
    d.add(s.mean_rt_s);
    d.add(s.avg_jobs);
  }
  d.add(r.cjdbc_gc_seconds);
  d.add(r.tomcat_gc_seconds);
  d.add(r.req_ratio);
  d.add(static_cast<std::uint64_t>(r.diagnosis.pathology));
  d.add(r.diagnosis.confidence);
  for (const std::string& res : r.diagnosis.implicated_resources) d.add(res);
  d.add(r.diagnosis.tail.component);
  d.add(static_cast<std::uint64_t>(r.diagnosis.tail.corroborates));
  d.add(static_cast<std::uint64_t>(r.tail.requests));
  for (const auto& c : r.tail.cohorts) {
    d.add(static_cast<std::uint64_t>(c.requests));
    d.add(c.mean_rt_s);
  }
  for (const core::GovernorAction& a : r.governor_actions) {
    d.add(a.at);
    d.add(a.pool);
    d.add(static_cast<std::uint64_t>(a.from));
    d.add(static_cast<std::uint64_t>(a.to));
  }
  for (const TenantStat& t : r.tenants) {
    d.add(t.name);
    d.add(t.throughput);
    d.add(t.goodput);
    d.add(t.badput);
    d.add(t.mean_rt_s);
  }
}

/// One hash per registry series over its (time, value) samples; the sorted
/// hashes make the result independent of series names and registration
/// order.
void digest_series(Digest& d, const RunResult& r) {
  std::vector<std::uint64_t> hashes;
  for (const obs::Series& s : r.series) {
    Digest h;
    h.add(static_cast<std::uint64_t>(s.size()));
    for (std::size_t i = 0; i < s.size(); ++i) {
      h.add(r.series.times()[i]);
      h.add(s.values[i]);
    }
    hashes.push_back(h.value());
  }
  std::sort(hashes.begin(), hashes.end());
  d.add(static_cast<std::uint64_t>(hashes.size()));
  for (const std::uint64_t h : hashes) d.add(h);
}

std::string golden_digest(const RunResult& r) {
  Digest d;
  digest_result(d, r);
  d.add(static_cast<std::uint64_t>(r.diagnosis.evidence.size()));
  for (const obs::EvidenceWindow& w : r.diagnosis.evidence) {
    d.add(w.series);
    d.add(w.from);
    d.add(w.to);
  }
  // Sorted: quantile queries sort the sample set in place.
  std::vector<double> rts = r.response_times.raw();
  std::sort(rts.begin(), rts.end());
  d.add(static_cast<std::uint64_t>(rts.size()));
  for (const double x : rts) d.add(x);
  digest_series(d, r);
  return d.hex();
}

/// The benches' compressed 20 s / 60 s / 3 s schedule at seed 42, built
/// directly so no SOFTRES_* variable changes what is locked.
ExperimentOptions compressed() {
  ExperimentOptions opts;
  opts.client.seed = 42;
  opts.client.ramp_up_s = 20.0;
  opts.client.runtime_s = 60.0;
  opts.client.ramp_down_s = 3.0;
  return opts;
}

ExperimentOptions traced() {
  ExperimentOptions opts = compressed();
  opts.set_trace_sample_rate(0.01);
  return opts;
}

TestbedConfig topology(const char* hw) {
  TestbedConfig cfg = TestbedConfig::defaults();
  cfg.hw = HardwareConfig::parse(hw);
  return cfg;
}

TEST(GoldenTest, Fig4Pool6At5000) {
  const Experiment e(topology("1/2/1/2"), traced());
  EXPECT_EQ(golden_digest(e.run(SoftConfig{400, 6, 200}, 5000)),
            "f08f8b79c0dafc4c");
}

TEST(GoldenTest, Fig4Pool6At6600) {
  const Experiment e(topology("1/2/1/2"), traced());
  EXPECT_EQ(golden_digest(e.run(SoftConfig{400, 6, 200}, 6600)),
            "44ffe0945eedae0d");
}

TEST(GoldenTest, Fig5Conns200At7800) {
  const Experiment e(topology("1/4/1/4"), compressed());
  EXPECT_EQ(golden_digest(e.run(SoftConfig{400, 200, 200}, 7800)),
            "1a52aefd370c54f7");
}

TEST(GoldenTest, Fig5CountAxis) {
  // The Fig 5 anchor with the profiler's count ledger installed: the trial's
  // digest must equal the unprofiled one (zero perturbation), and the count
  // matrix itself is locked phase-major.
  ExperimentOptions opts = compressed();
  opts.profile = true;
  const Experiment e(topology("1/4/1/4"), opts);
  const RunResult r = e.run(SoftConfig{400, 200, 200}, 7800);
  EXPECT_EQ(golden_digest(r), "1a52aefd370c54f7");
  Digest counts;
  for (std::size_t p = 0; p < prof::kPhases; ++p) {
    for (std::size_t s = 0; s < prof::kSubsystems; ++s) {
      counts.add(static_cast<std::uint64_t>(r.profile.counts[p][s]));
    }
  }
  EXPECT_EQ(counts.hex(), "59da23054d6d1a3a");
}

TEST(GoldenTest, Fig78Pool30At7400) {
  const Experiment e(topology("1/4/1/4"), traced());
  EXPECT_EQ(golden_digest(e.run(SoftConfig{30, 6, 20}, 7400)),
            "60fe3d6b7cf7de35");
}

TEST(GoldenTest, GovernedFlashCrowd) {
  // bench_governor's flash crowd: 5 s ramp-up, SLO 1 s, 2500 -> 7000 ->
  // 2500 users, governed from the liberal allocation.
  ExperimentOptions opts = compressed();
  opts.client.ramp_up_s = 5.0;
  opts.client.runtime_s = 150.0;
  opts.client.ramp_down_s = 3.0;
  opts.sla_threshold_s = 1.0;
  opts.client.load_schedule =
      workload::flash_crowd_schedule(2500, 7000, 60.0, 50.0);
  opts.governor.enabled = true;
  const Experiment e(topology("1/4/1/4"), opts);
  EXPECT_EQ(golden_digest(e.run(SoftConfig{400, 200, 200}, 7000)),
            "68a0f20fad31c8c2");
}

TEST(GoldenTest, TwoTenantKarma) {
  // bench_tenants' honest Karma trial: 10x demands, 1 s think time, gold and
  // silver at 120 users each on 200-4-8.
  TestbedConfig cfg = TestbedConfig::defaults();
  cfg.demands.tomcat_base_s *= 10.0;
  cfg.demands.cjdbc_per_query_s *= 10.0;
  cfg.demands.mysql_per_query_s *= 10.0;
  ExperimentOptions opts = compressed();
  opts.client.think_time_mean_s = 1.0;
  workload::TenantSpec gold;
  gold.name = "gold";
  gold.users = 120;
  workload::TenantSpec silver;
  silver.name = "silver";
  silver.users = 120;
  opts.client.tenants = {gold, silver};
  opts.partition.strategy = soft::ShareStrategy::kKarmaCredits;
  const Experiment e(cfg, opts);
  EXPECT_EQ(golden_digest(e.run(SoftConfig{200, 4, 8}, 240)),
            "afc126bd17b118c2");
}

}  // namespace
}  // namespace softres::exp
