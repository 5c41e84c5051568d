#pragma once

// Online soft-resource pathology diagnoser: one streaming detector per paper
// pathology, each watching correlated obs::Timeline series and emitting
// evidence windows that cite the exact series, time range and threshold that
// fired. This is the automation of the paper's diagnosis step — the part that
// hardware-only monitoring cannot do (Sections III-A/B/C):
//
//   kSoftUnderAlloc  Fig 4: a thread/connection pool pegged at capacity with
//                    waiters while every CPU idles below the paper's "no
//                    hardware bottleneck" band.
//   kGcOverAlloc     Fig 5: a JVM node whose GC share of CPU stays high while
//                    the node's CPU saturates — goodput collapses although
//                    the allocation was "generous".
//   kFinWaitBuffer   Fig 7: the web tier's worker pool saturated while the
//                    workers actually interacting with the app tier fall far
//                    below the active count (the rest linger in FIN wait),
//                    with the back-end hardware unsaturated.
//   kHardware/kMulti the classic cases, for completeness of the verdict.
//
// Rendering contract (softres-lint SR008): no stream writes here — a
// Diagnosis is data; obs/report.h renders it.

#include <cstddef>
#include <string>
#include <vector>

#include "core/bottleneck.h"
#include "obs/timeline.h"
#include "sim/sim_time.h"

namespace softres::obs {

enum class Pathology {
  kNone,            // healthy: nothing fired over the analysis window
  kSoftUnderAlloc,  // Section III-A starvation (Fig 4)
  kGcOverAlloc,     // Section III-B GC-driven collapse (Fig 5)
  kFinWaitBuffer,   // Section III-C FIN-wait buffer effect (Figs 6-8)
  kNoisyNeighbor,   // one tenant dominating a shared pool starves another
  kHardware,        // a hardware resource saturated
  kMulti,           // more than one pathology fired
};

const char* pathology_name(Pathology p);

/// One contiguous stretch of samples during which a detector's condition
/// held: the citable evidence ("pool_util_pct{pool=tomcat0.threads} >= 99%
/// for 8 s while max cpu_util_pct = 38% < 85%").
struct EvidenceWindow {
  std::string series;     // primary series, rendered name{labels}
  sim::SimTime from = 0.0;
  sim::SimTime to = 0.0;
  std::string condition;  // human-readable rule instance that fired
  double observed = 0.0;  // mean of the primary series over [from, to]
  double threshold = 0.0; // the bound it was compared against

  double duration() const { return to - from; }
};

/// Machine-consumable remediation hint (the governor's advice channel).
struct SuggestedAction {
  enum class Kind { kNone, kGrowPool, kShrinkPool, kAddHardware };
  Kind kind = Kind::kNone;
  std::string resource;  // pool name for grow/shrink, node name otherwise
  std::string text;      // human-readable phrasing
};

/// Request-level corroboration of a series-level verdict: the p99+ cohort's
/// dominant blame component and its ratio against the p0-50 baseline, filled
/// by obs::corroborate (obs/tail.h) from a TailAttribution. present == false
/// when the trial ran untraced; corroborates == true when the component maps
/// onto a resource the verdict implicates ("tomcat.queue" onto
/// "tomcat0.threads"), tying the diagnosis to per-request evidence.
struct TailEvidence {
  bool present = false;
  std::string cohort;           // "p99+"
  std::string component;        // "tomcat.queue"
  double cohort_mean_ms = 0.0;  // mean blame of the component in the cohort
  double base_mean_ms = 0.0;    // same component in the p0-50 cohort
  double delta = 0.0;           // cohort_mean / base_mean (0 when base is 0)
  bool corroborates = false;
  std::string text;             // one-line citation, report-ready
};

/// The structured verdict of one trial.
struct Diagnosis {
  Pathology pathology = Pathology::kNone;
  double confidence = 0.0;  // 0..1, scaled by sustained evidence duration
  std::vector<EvidenceWindow> evidence;
  std::vector<std::string> implicated_resources;
  SuggestedAction suggested_action;
  TailEvidence tail;

  /// Translate into the vocabulary core::detect_bottleneck understands, so
  /// the classifier can delegate to timeline-backed evidence when available.
  core::DiagnosisHint to_hint() const;

  /// One-line rendering ("kSoftUnderAlloc (conf 0.92): tomcat0.threads ...").
  std::string summary() const;
};

struct DiagnoserConfig {
  /// A pool counts as pegged at or above this occupancy percent.
  double pool_saturated_pct = 99.0;
  /// "No hardware bottleneck": every CPU's rolling mean below the saturation
  /// band while a pool is pegged (Fig 4: the starved allocation leaves every
  /// CPU under this line while tomcat0.threads sits at 100%).
  double idle_cpu_pct = 95.0;
  /// Hardware saturation band, matching exp::kCpuSaturationPct.
  double cpu_saturated_pct = 95.0;
  /// GC share of the interval that marks over-allocation collapse.
  double gc_high_pct = 8.0;
  /// The node whose GC is high must itself be at least this busy (the GC is
  /// *consuming* the CPU, not hiding behind an idle node).
  double gc_busy_cpu_pct = 80.0;
  /// FIN-wait: workers interacting with the app tier, as a fraction of
  /// active workers, below which the buffer effect is on (Fig 7d-f).
  double connecting_fraction = 0.6;
  /// Noisy neighbour: a tenant counts as dominating a shared pool when its
  /// occupancy share exceeds this multiple of the even split (100%/N).
  double noisy_dominance_factor = 1.35;
  /// ...and some *other* tenant, holding less than the even split, must be
  /// accruing at least this much badput (req/s) for the domination to count
  /// as a pathology rather than harmless work conservation.
  double noisy_victim_badput = 0.5;
  /// A condition must hold contiguously at least this long to fire.
  double hold_s = 5.0;
  /// A detector's qualified evidence must *total* at least this long to
  /// contribute to the verdict. Post-ramp bursts can clear hold_s once; a
  /// pathology worth reporting keeps re-firing.
  double min_verdict_s = 15.0;
  /// Evidence totalling this many seconds saturates confidence at 1.
  double full_confidence_s = 15.0;
  /// Rolling window every rule input is averaged over before it is compared
  /// against its threshold (instantaneous samples — GC bursts especially —
  /// are too jittery to hold a condition for hold_s).
  double stat_window_s = 10.0;
};

/// Streaming rule engine over one trial's Timeline. Construct after the
/// store holds its series (the constructor discovers pools, CPUs, GC and
/// web-tier series by family and labels, pools by the naming convention
/// "<server>.workers|threads|dbconns"). Call observe() once per tick, right
/// after the store recorded it, then diagnosis() for the verdict.
class Diagnoser {
 public:
  explicit Diagnoser(const Timeline& timeline, DiagnoserConfig cfg = {});

  Diagnoser(const Diagnoser&) = delete;
  Diagnoser& operator=(const Diagnoser&) = delete;

  /// Restrict the verdict to evidence overlapping [lo, hi] (the measurement
  /// window) so ramp-up transients cannot fire a pathology.
  void set_analysis_window(sim::SimTime lo, sim::SimTime hi);

  /// Evaluate every detector against the newest samples. Deterministic:
  /// detectors run in construction order and read only timeline state.
  void observe(sim::SimTime now);

  /// The verdict over everything observed so far. Cheap enough to call every
  /// tick (the testbed's governor advice channel does).
  Diagnosis diagnosis() const;

  /// Detectors whose condition held at the latest observe().
  std::size_t active_detectors() const;

  const DiagnoserConfig& config() const { return cfg_; }

 private:
  struct Detector {
    Pathology pathology = Pathology::kNone;
    std::string series;        // primary evidence series (rendered)
    std::size_t primary = 0;   // timeline index of the primary series
    std::string resource;      // implicated resource
    std::vector<std::string> also_implicated;
    SuggestedAction action;
    double threshold = 0.0;
    // Streaming state.
    bool open = false;
    sim::SimTime open_since = 0.0;
    std::string open_condition;
    double open_sum = 0.0;   // running mean of the primary series while open
    std::size_t open_n = 0;
    std::vector<EvidenceWindow> windows;
  };

  // Series groups discovered from the timeline at construction.
  struct PoolRef {
    std::string pool;    // "tomcat0.threads"
    std::string server;  // "tomcat0"
    std::string kind;    // "workers" | "threads" | "dbconns"
    std::size_t util = npos;
    std::size_t waiting = npos;
  };
  struct CpuRef {
    std::string node;
    std::size_t util = npos;
  };
  struct GcRef {
    std::string node;
    std::size_t gc = npos;
    std::size_t cpu = npos;  // cpu_util_pct of the same node
  };
  struct WebRef {
    std::string server;
    std::size_t workers_util = npos;
    std::size_t active = npos;
    std::size_t connecting = npos;
  };
  /// One pool_tenant_share_pct series of a partitioned pool.
  struct TenantShareRef {
    std::string pool;
    std::string tenant;
    std::size_t share = npos;
  };
  /// One tenant's farm-side SLA series (tenant_badput, labelled by tenant).
  struct TenantSlaRef {
    std::string tenant;
    std::size_t badput = npos;
  };

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  void discover();
  void step(Detector& d, bool cond, double primary_value,
            const std::string& condition, sim::SimTime now);
  /// Rolling mean of series i over stat_window_s (the rule-input smoother).
  double smoothed(std::size_t i) const;
  double max_cpu() const;
  double max_backend_cpu() const;

  const Timeline* timeline_;
  DiagnoserConfig cfg_;
  sim::SimTime analysis_lo_ = 0.0;
  sim::SimTime analysis_hi_ = 1e300;
  sim::SimTime last_observe_ = 0.0;
  sim::SimTime prev_observe_ = 0.0;

  std::vector<PoolRef> pools_;
  std::vector<CpuRef> cpus_;
  std::vector<GcRef> gcs_;
  std::vector<WebRef> webs_;
  std::vector<TenantShareRef> tenant_shares_;
  std::vector<TenantSlaRef> tenant_slas_;

  std::vector<Detector> under_alloc_;  // one per non-web pool
  std::vector<Detector> gc_over_;      // one per JVM node
  std::vector<Detector> fin_wait_;     // one per web server
  std::vector<Detector> noisy_;        // one per (partitioned pool, tenant)
  std::vector<Detector> hardware_;     // one per node
};

}  // namespace softres::obs
