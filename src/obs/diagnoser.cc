#include "obs/diagnoser.h"

#include <algorithm>
#include <cstdio>

#include "obs/trace.h"  // tier_of

namespace softres::obs {

const char* pathology_name(Pathology p) {
  switch (p) {
    case Pathology::kNone: return "kNone";
    case Pathology::kSoftUnderAlloc: return "kSoftUnderAlloc";
    case Pathology::kGcOverAlloc: return "kGcOverAlloc";
    case Pathology::kFinWaitBuffer: return "kFinWaitBuffer";
    case Pathology::kNoisyNeighbor: return "kNoisyNeighbor";
    case Pathology::kHardware: return "kHardware";
    case Pathology::kMulti: return "kMulti";
  }
  return "kNone";
}

namespace {

/// snprintf into a std::string (SR008 keeps streams out of detector code).
template <typename... Args>
std::string fmt(const char* format, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, args...);
  return std::string(buf);
}

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

}  // namespace

core::DiagnosisHint Diagnosis::to_hint() const {
  core::DiagnosisHint hint;
  hint.valid = true;
  hint.confidence = confidence;
  for (const std::string& r : implicated_resources) {
    // Tenant attributions ("tenant:<name>") name a workload principal, not a
    // resizable resource — core's vocabulary has no slot for them.
    if (r.rfind("tenant:", 0) == 0) continue;
    // Hardware resources follow core's "<node>.cpu" convention; everything
    // else is a soft pool name.
    const bool is_cpu = r.size() > 4 && r.compare(r.size() - 4, 4, ".cpu") == 0;
    (is_cpu ? hint.hardware : hint.soft).push_back(r);
  }
  switch (pathology) {
    case Pathology::kNone:
      hint.kind = core::BottleneckKind::kNone;
      break;
    case Pathology::kSoftUnderAlloc:
    case Pathology::kFinWaitBuffer:
    case Pathology::kGcOverAlloc:
    case Pathology::kNoisyNeighbor:
      // All three soft-resource pathologies classify as the paper's hidden
      // soft bottleneck; the GC case additionally names the CPU the collector
      // burns as the critical hardware symptom.
      hint.kind = core::BottleneckKind::kSoft;
      if (!hint.hardware.empty()) hint.critical = hint.hardware.front();
      break;
    case Pathology::kHardware:
      hint.kind = core::BottleneckKind::kHardware;
      if (!hint.hardware.empty()) hint.critical = hint.hardware.front();
      break;
    case Pathology::kMulti:
      hint.kind = core::BottleneckKind::kMulti;
      if (!hint.hardware.empty()) hint.critical = hint.hardware.front();
      break;
  }
  return hint;
}

std::string Diagnosis::summary() const {
  std::string out = fmt("%s (confidence %.2f)", pathology_name(pathology),
                        confidence);
  if (!implicated_resources.empty()) {
    out += ":";
    for (const std::string& r : implicated_resources) out += " " + r;
  }
  if (!evidence.empty()) {
    out += fmt(" — %zu evidence window(s), e.g. [%.0f s, %.0f s] ",
               evidence.size(), evidence.front().from, evidence.front().to);
    out += evidence.front().condition;
  }
  if (!suggested_action.text.empty()) {
    out += " — suggested: " + suggested_action.text;
  }
  return out;
}

Diagnoser::Diagnoser(const Timeline& timeline, DiagnoserConfig cfg)
    : timeline_(&timeline), cfg_(cfg) {
  discover();
}

void Diagnoser::set_analysis_window(sim::SimTime lo, sim::SimTime hi) {
  analysis_lo_ = lo;
  analysis_hi_ = hi;
}

void Diagnoser::discover() {
  const Timeline& tl = *timeline_;
  auto label = [](const Labels& ls, const char* key) -> std::string {
    for (const auto& kv : ls) {
      if (kv.first == key) return kv.second;
    }
    return "";
  };
  // Pass 1: group the recorded series by semantic family.
  for (std::size_t i = 0; i < tl.size(); ++i) {
    const std::string& name = tl[i].family;
    const Labels& labels = tl[i].labels;
    if (name == "cpu_util_pct") {
      cpus_.push_back(CpuRef{label(labels, "node"), i});
    } else if (name == "gc_util_pct") {
      gcs_.push_back(GcRef{label(labels, "node"), i, npos});
    } else if (name == "pool_util_pct" || name == "pool_waiting") {
      const std::string pool = label(labels, "pool");
      const std::size_t dot = pool.rfind('.');
      PoolRef* ref = nullptr;
      for (PoolRef& p : pools_) {
        if (p.pool == pool) ref = &p;
      }
      if (ref == nullptr) {
        pools_.push_back(PoolRef{});
        ref = &pools_.back();
        ref->pool = pool;
        ref->server = dot == std::string::npos ? pool : pool.substr(0, dot);
        ref->kind = dot == std::string::npos ? "" : pool.substr(dot + 1);
      }
      (name == "pool_util_pct" ? ref->util : ref->waiting) = i;
    } else if (name == "pool_tenant_share_pct") {
      tenant_shares_.push_back(
          TenantShareRef{label(labels, "pool"), label(labels, "tenant"), i});
    } else if (name == "tenant_badput") {
      tenant_slas_.push_back(TenantSlaRef{label(labels, "tenant"), i});
    } else if (name == "apache_threads_active" ||
               name == "apache_threads_connecting") {
      const std::string server = label(labels, "server");
      WebRef* ref = nullptr;
      for (WebRef& w : webs_) {
        if (w.server == server) ref = &w;
      }
      if (ref == nullptr) {
        webs_.push_back(WebRef{});
        ref = &webs_.back();
        ref->server = server;
      }
      (name == "apache_threads_active" ? ref->active : ref->connecting) = i;
    }
  }
  // Pass 2: cross-link (GC node -> its CPU, web server -> its worker pool)
  // and instantiate one detector per rule instance.
  for (GcRef& g : gcs_) {
    for (const CpuRef& c : cpus_) {
      if (c.node == g.node) g.cpu = c.util;
    }
  }
  for (WebRef& w : webs_) {
    for (const PoolRef& p : pools_) {
      if (p.server == w.server && p.kind == "workers") w.workers_util = p.util;
    }
  }

  for (const PoolRef& p : pools_) {
    if (p.util == npos || p.kind == "workers") continue;  // web -> FIN rule
    Detector d;
    d.pathology = Pathology::kSoftUnderAlloc;
    d.primary = p.util;
    d.series = tl[p.util].name;
    d.resource = p.pool;
    d.threshold = cfg_.pool_saturated_pct;
    d.action = {SuggestedAction::Kind::kGrowPool, p.pool,
                "grow " + p.pool + " (under-allocated: hardware idles below "
                "the saturated pool)"};
    under_alloc_.push_back(std::move(d));
  }
  for (const GcRef& g : gcs_) {
    if (g.gc == npos || g.cpu == npos) continue;
    Detector d;
    d.pathology = Pathology::kGcOverAlloc;
    d.primary = g.gc;
    d.series = tl[g.gc].name;
    d.resource = g.node + ".cpu";
    d.threshold = cfg_.gc_high_pct;
    // The pools whose over-allocation feeds this JVM's live set: the node's
    // own pools for an app server, every DB connection pool for the
    // clustering middleware (one Tomcat connection = one C-JDBC thread).
    const bool middleware = tier_of(g.node) == "cjdbc";
    std::string first_pool;
    for (const PoolRef& p : pools_) {
      const bool feeds = middleware ? p.kind == "dbconns" : p.server == g.node;
      if (!feeds) continue;
      if (first_pool.empty()) first_pool = p.pool;
      d.also_implicated.push_back(p.pool);
    }
    d.action = {SuggestedAction::Kind::kShrinkPool,
                first_pool.empty() ? g.node + ".cpu" : first_pool,
                "shrink " + (first_pool.empty() ? "the pools feeding "
                : first_pool + " (and peers feeding ") + g.node +
                    (first_pool.empty() ? "" : ")") +
                    ": GC of idle-unit heap is eating the CPU"};
    gc_over_.push_back(std::move(d));
  }
  for (const WebRef& w : webs_) {
    if (w.workers_util == npos || w.active == npos || w.connecting == npos) {
      continue;
    }
    Detector d;
    d.pathology = Pathology::kFinWaitBuffer;
    d.primary = w.connecting;
    d.series = tl[w.connecting].name;
    d.resource = w.server + ".workers";
    d.threshold = cfg_.connecting_fraction;
    d.action = {SuggestedAction::Kind::kGrowPool, w.server + ".workers",
                "grow " + w.server + ".workers: FIN-wait lingering eats the "
                "worker pool, so size it as a buffer well above the "
                "downstream slots"};
    fin_wait_.push_back(std::move(d));
  }
  // One noisy-neighbour detector per (partitioned pool, candidate offender):
  // fires when the tenant dominates a saturated pool while another tenant,
  // held under the even split, accrues badput. Only built when the testbed
  // registered tenant share series, i.e. for multi-tenant trials.
  for (const TenantShareRef& ts : tenant_shares_) {
    const PoolRef* pr = nullptr;
    for (const PoolRef& p : pools_) {
      if (p.pool == ts.pool) pr = &p;
    }
    if (pr == nullptr || pr->util == npos) continue;
    std::size_t n = 0;
    for (const TenantShareRef& other : tenant_shares_) {
      if (other.pool == ts.pool) ++n;
    }
    if (n < 2) continue;  // domination needs someone to dominate
    Detector d;
    d.pathology = Pathology::kNoisyNeighbor;
    d.primary = ts.share;
    d.series = tl[ts.share].name;
    d.resource = "tenant:" + ts.tenant;
    d.also_implicated.push_back(ts.pool);
    d.threshold =
        cfg_.noisy_dominance_factor * 100.0 / static_cast<double>(n);
    d.action = {SuggestedAction::Kind::kNone, "tenant:" + ts.tenant,
                "tenant " + ts.tenant + " is crowding " + ts.pool +
                    ": throttle it or switch the pool to credit-based "
                    "(kKarmaCredits) sharing"};
    noisy_.push_back(std::move(d));
  }
  for (const CpuRef& c : cpus_) {
    Detector d;
    d.pathology = Pathology::kHardware;
    d.primary = c.util;
    d.series = tl[c.util].name;
    d.resource = c.node + ".cpu";
    d.threshold = cfg_.cpu_saturated_pct;
    d.action = {SuggestedAction::Kind::kAddHardware, c.node,
                "scale out the " + tier_of(c.node) + " tier: " + c.node +
                    " is hardware-saturated"};
    hardware_.push_back(std::move(d));
  }
}

std::size_t Diagnoser::active_detectors() const {
  std::size_t n = 0;
  for (const auto* group :
       {&under_alloc_, &gc_over_, &fin_wait_, &noisy_, &hardware_}) {
    for (const Detector& d : *group) {
      if (d.open) ++n;
    }
  }
  return n;
}

double Diagnoser::smoothed(std::size_t i) const {
  return timeline_->trailing_mean(i, cfg_.stat_window_s);
}

double Diagnoser::max_cpu() const {
  double best = 0.0;
  for (const CpuRef& c : cpus_) best = std::max(best, smoothed(c.util));
  return best;
}

double Diagnoser::max_backend_cpu() const {
  double best = 0.0;
  for (const CpuRef& c : cpus_) {
    bool is_web = false;
    for (const WebRef& w : webs_) {
      if (w.server == c.node) is_web = true;
    }
    if (is_web) continue;
    best = std::max(best, smoothed(c.util));
  }
  return best;
}

void Diagnoser::step(Detector& d, bool cond, double primary_value,
                     const std::string& condition, sim::SimTime now) {
  if (cond) {
    if (!d.open) {
      d.open = true;
      d.open_since = now;
      d.open_sum = 0.0;
      d.open_n = 0;
    }
    d.open_sum += primary_value;
    ++d.open_n;
    d.open_condition = condition;  // cite the most recent observed values
    return;
  }
  if (!d.open) return;
  // Condition broke: close the run at the previous tick.
  EvidenceWindow w;
  w.series = d.series;
  w.from = d.open_since;
  w.to = prev_observe_;
  w.condition = d.open_condition;
  w.observed = d.open_n == 0 ? 0.0
                             : d.open_sum / static_cast<double>(d.open_n);
  w.threshold = d.threshold;
  d.open = false;
  if (w.duration() >= cfg_.hold_s) d.windows.push_back(std::move(w));
}

void Diagnoser::observe(sim::SimTime now) {
  prev_observe_ = last_observe_;
  last_observe_ = now;
  const double cpu_peak = max_cpu();
  const double backend_cpu = max_backend_cpu();

  // Rule III-A: a non-web pool pegged with a queue while all hardware stays
  // below the saturation band.
  for (std::size_t i = 0; i < under_alloc_.size(); ++i) {
    Detector& d = under_alloc_[i];
    const PoolRef* p = nullptr;
    for (const PoolRef& ref : pools_) {
      if (ref.pool == d.resource) p = &ref;
    }
    const double util = smoothed(d.primary);
    const double waiting =
        p != nullptr && p->waiting != npos ? smoothed(p->waiting) : 0.0;
    const bool cond = util >= cfg_.pool_saturated_pct && waiting > 0.5 &&
                      cpu_peak < cfg_.idle_cpu_pct;
    step(d, cond, util,
         cond ? fmt("%s=%.0f%% >= %.0f%% with %.0f waiter(s) while max "
                    "cpu_util_pct=%.0f%% < %.0f%%",
                    d.series.c_str(), util, cfg_.pool_saturated_pct, waiting,
                    cpu_peak, cfg_.idle_cpu_pct)
              : std::string(),
         now);
  }

  // Rule III-B: sustained high GC share on a busy JVM node.
  for (std::size_t i = 0; i < gc_over_.size(); ++i) {
    Detector& d = gc_over_[i];
    // d.resource is "<node>.cpu"; detectors skip refs with missing series,
    // so look the ref up by node rather than pairing by index.
    const std::string node = d.resource.substr(0, d.resource.rfind('.'));
    const GcRef* gp = nullptr;
    for (const GcRef& ref : gcs_) {
      if (ref.node == node) gp = &ref;
    }
    const GcRef& g = *gp;
    const double gc = smoothed(d.primary);
    const double cpu = smoothed(g.cpu);
    const bool cond = gc >= cfg_.gc_high_pct && cpu >= cfg_.gc_busy_cpu_pct;
    step(d, cond, gc,
         cond ? fmt("%s=%.1f%% >= %.1f%% while cpu_util_pct{node=%s}=%.0f%% "
                    ">= %.0f%%",
                    d.series.c_str(), gc, cfg_.gc_high_pct, g.node.c_str(),
                    cpu, cfg_.gc_busy_cpu_pct)
              : std::string(),
         now);
  }

  // Rule III-C: web workers saturated but mostly *not* talking to the app
  // tier (FIN-wait lingering), back-end hardware unsaturated.
  for (std::size_t i = 0; i < fin_wait_.size(); ++i) {
    Detector& d = fin_wait_[i];
    const std::string server = d.resource.substr(0, d.resource.rfind('.'));
    const WebRef* wp = nullptr;
    for (const WebRef& ref : webs_) {
      if (ref.server == server) wp = &ref;
    }
    const WebRef& w = *wp;
    const double util = smoothed(w.workers_util);
    const double active = smoothed(w.active);
    const double connecting = smoothed(w.connecting);
    const bool cond = util >= cfg_.pool_saturated_pct && active > 0.5 &&
                      connecting <= cfg_.connecting_fraction * active &&
                      backend_cpu < cfg_.cpu_saturated_pct;
    step(d, cond, connecting,
         cond ? fmt("pool_util_pct{pool=%s.workers}=%.0f%% >= %.0f%% while "
                    "threads_connecting=%.0f <= %.2f*threads_active=%.0f and "
                    "max backend cpu_util_pct=%.0f%% < %.0f%%",
                    w.server.c_str(), util, cfg_.pool_saturated_pct,
                    connecting, cfg_.connecting_fraction, active, backend_cpu,
                    cfg_.cpu_saturated_pct)
              : std::string(),
         now);
  }

  // Multi-tenant rule: an offender tenant dominating a saturated shared pool
  // while some under-share tenant accrues badput. Plain over-use of an idle
  // pool is work conservation, not a pathology — the victim clause is what
  // separates the two.
  for (Detector& d : noisy_) {
    const std::string offender = d.resource.substr(7);  // strip "tenant:"
    const std::string& pool = d.also_implicated.front();
    const PoolRef* pr = nullptr;
    for (const PoolRef& ref : pools_) {
      if (ref.pool == pool) pr = &ref;
    }
    const double util = smoothed(pr->util);
    const double share = smoothed(d.primary);
    std::size_t n = 0;
    for (const TenantShareRef& ts : tenant_shares_) {
      if (ts.pool == pool) ++n;
    }
    const double fair = 100.0 / static_cast<double>(n);
    // The victim: any other tenant squeezed below the even split on this
    // pool while its farm-side badput stays above the floor.
    const TenantShareRef* victim = nullptr;
    double victim_badput = 0.0;
    for (const TenantShareRef& ts : tenant_shares_) {
      if (ts.pool != pool || ts.tenant == offender) continue;
      if (smoothed(ts.share) >= fair) continue;
      for (const TenantSlaRef& sla : tenant_slas_) {
        if (sla.tenant != ts.tenant) continue;
        const double badput = smoothed(sla.badput);
        if (badput >= cfg_.noisy_victim_badput && victim == nullptr) {
          victim = &ts;
          victim_badput = badput;
        }
      }
    }
    const bool cond = util >= cfg_.pool_saturated_pct &&
                      share >= cfg_.noisy_dominance_factor * fair &&
                      victim != nullptr;
    step(d, cond, share,
         cond ? fmt("%s=%.0f%% >= %.2f*fair(%.0f%%) on saturated %s "
                    "(util=%.0f%%) while tenant_badput{tenant=%s}=%.1f/s >= "
                    "%.1f/s",
                    d.series.c_str(), share, cfg_.noisy_dominance_factor,
                    fair, pool.c_str(), util, victim->tenant.c_str(),
                    victim_badput, cfg_.noisy_victim_badput)
              : std::string(),
         now);
  }

  // The classic case: a CPU pegged above the saturation band.
  for (std::size_t i = 0; i < hardware_.size(); ++i) {
    Detector& d = hardware_[i];
    const double util = smoothed(d.primary);
    const bool cond = util >= cfg_.cpu_saturated_pct;
    step(d, cond, util,
         cond ? fmt("%s=%.0f%% >= %.0f%%", d.series.c_str(), util,
                    cfg_.cpu_saturated_pct)
              : std::string(),
         now);
  }
}

Diagnosis Diagnoser::diagnosis() const {
  // Qualified evidence: closed windows plus the still-open run, clipped to
  // the analysis window, long enough to count.
  struct Fired {
    const Detector* detector = nullptr;
    std::vector<EvidenceWindow> windows;
    double total_s = 0.0;
  };
  auto qualify = [this](const std::vector<Detector>& detectors) {
    std::vector<Fired> fired;
    for (const Detector& d : detectors) {
      Fired f;
      f.detector = &d;
      std::vector<EvidenceWindow> all = d.windows;
      if (d.open) {
        EvidenceWindow w;
        w.series = d.series;
        w.from = d.open_since;
        w.to = last_observe_;
        w.condition = d.open_condition;
        w.observed = d.open_n == 0
                         ? 0.0
                         : d.open_sum / static_cast<double>(d.open_n);
        w.threshold = d.threshold;
        all.push_back(std::move(w));
      }
      for (EvidenceWindow& w : all) {
        w.from = std::max(w.from, analysis_lo_);
        w.to = std::min(w.to, analysis_hi_);
        if (w.to - w.from < cfg_.hold_s) continue;
        f.total_s += w.duration();
        f.windows.push_back(std::move(w));
      }
      if (!f.windows.empty() && f.total_s >= cfg_.min_verdict_s) {
        fired.push_back(std::move(f));
      }
    }
    return fired;
  };

  const std::vector<Fired> under = qualify(under_alloc_);
  const std::vector<Fired> gc = qualify(gc_over_);
  const std::vector<Fired> fin = qualify(fin_wait_);
  const std::vector<Fired> noisy = qualify(noisy_);
  const std::vector<Fired> hard = qualify(hardware_);

  std::vector<const std::vector<Fired>*> soft_fired;
  if (!under.empty()) soft_fired.push_back(&under);
  if (!gc.empty()) soft_fired.push_back(&gc);
  if (!fin.empty()) soft_fired.push_back(&fin);

  Diagnosis diag;
  auto absorb = [&diag](const std::vector<Fired>& fired) {
    double best = 0.0;
    for (const Fired& f : fired) {
      for (const EvidenceWindow& w : f.windows) diag.evidence.push_back(w);
      if (!contains(diag.implicated_resources, f.detector->resource)) {
        diag.implicated_resources.push_back(f.detector->resource);
      }
      for (const std::string& r : f.detector->also_implicated) {
        if (!contains(diag.implicated_resources, r)) {
          diag.implicated_resources.push_back(r);
        }
      }
      if (f.total_s > best) {
        best = f.total_s;
        diag.suggested_action = f.detector->action;
      }
    }
    return best;
  };

  double evidence_s = 0.0;
  if (!noisy.empty()) {
    // A noisy neighbour *causes* pool contention, so kSoftUnderAlloc fires
    // alongside it on the same evidence; the tenant-level explanation
    // subsumes the pool-level symptom and leads the verdict. Absorb noisy
    // first so implicated_resources leads with "tenant:<name>".
    diag.pathology = Pathology::kNoisyNeighbor;
    const Fired* best = &noisy.front();
    for (const Fired& f : noisy) {
      if (f.total_s > best->total_s) best = &f;
      evidence_s += f.total_s;
    }
    absorb(noisy);
    for (const auto* fired : soft_fired) {
      for (const Fired& f : *fired) evidence_s += f.total_s;
      absorb(*fired);
    }
    diag.suggested_action = best->detector->action;
  } else if (soft_fired.size() > 1) {
    diag.pathology = Pathology::kMulti;
    for (const auto* fired : soft_fired) {
      for (const Fired& f : *fired) evidence_s += f.total_s;
      absorb(*fired);
    }
    diag.suggested_action = SuggestedAction{
        SuggestedAction::Kind::kNone, "",
        "multiple pathologies: re-balance the whole allocation vector"};
  } else if (soft_fired.size() == 1) {
    const std::vector<Fired>& fired = *soft_fired.front();
    diag.pathology = fired.front().detector->pathology;
    for (const Fired& f : fired) evidence_s += f.total_s;
    absorb(fired);
  } else if (!hard.empty()) {
    // Hardware-only: one tier saturated is the classic bottleneck, several
    // tiers is the multi-bottleneck of [9].
    std::vector<std::string> tiers;
    for (const Fired& f : hard) {
      const std::string t = tier_of(f.detector->resource.substr(
          0, f.detector->resource.rfind('.')));
      if (!contains(tiers, t)) tiers.push_back(t);
      evidence_s += f.total_s;
    }
    diag.pathology =
        tiers.size() > 1 ? Pathology::kMulti : Pathology::kHardware;
    absorb(hard);
  } else {
    diag.pathology = Pathology::kNone;
    diag.confidence = 1.0;
    return diag;
  }
  diag.confidence =
      std::min(1.0, evidence_s / std::max(cfg_.full_confidence_s, 1e-9));
  return diag;
}

}  // namespace softres::obs
