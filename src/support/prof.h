#pragma once

// Self-profiler core (DESIGN.md §11): the always-compiled, opt-in count
// ledger the simulator hot paths include. This header is deliberately
// dependency-free (no sim/, no obs/) so every library under src/ can use the
// macros without a layering cycle; src/obs/profiler.h snapshots and renders
// what a trial counted.
//
// One axis: `Ledger::counts`, per-phase, per-subsystem event counters.
// Increment-only integers driven purely by the simulated event sequence, so
// they are part of the determinism contract — bit-identical between jobs=1
// and jobs=4 sweeps (tests/determinism_test.cc). Machine time is measured by
// the bench_suite ladder and perfbench, never here.
//
// Cost when a trial is not being profiled: every macro is one thread_local
// pointer load and a predictable branch. tests/profiler_test.cc holds the
// zero-perturbation line (identical event sequence and results with the
// ledger installed).

#include <cstddef>
#include <cstdint>

namespace softres::prof {

/// The attributed subsystems. Order is the rendering order; names live in
/// subsystem_name(). Keep in sync with obs/profiler.cc and DESIGN.md §11.
enum class Subsystem : std::uint8_t {
  kEventQueuePush = 0,  // PendingSet::push (the simulator's pending set)
  kEventQueuePop,       // PendingSet::pop
  kEventQueueCancel,    // PendingSet::update / erase (eager re-key + cancel)
  kDispatch,            // Simulator::dispatch (InlineCallback invocation)
  kDistSample,          // distribution sampling (fast_exponential et al.)
  kPoolService,         // soft::Pool acquire/release/grant
  kCpuService,          // hw::Cpu submit path
  kJvmService,          // jvm::Jvm allocation accounting + collections
  kLinkService,         // hw::Link send
  kArenaAlloc,          // tier::RequestArena acquire (slab growth vs reuse)
  kTimeline,            // obs::Timeline::record (one per sample tick)
  kApacheService,       // web-tier requests served
  kTomcatService,       // app-tier requests served
  kCJdbcService,        // middleware requests served
  kMySqlService,        // database requests served
  kCount,
};
inline constexpr std::size_t kSubsystems =
    static_cast<std::size_t>(Subsystem::kCount);

/// Trial phases of the ledger. Transitions are driven by the testbed's
/// own schedule (build, farm ramp, measurement window), so the phase a count
/// lands in is as deterministic as the count itself.
enum class Phase : std::uint8_t {
  kSetup = 0,  // topology build, registry construction
  kRampUp,
  kMeasure,
  kRampDown,
  kCount,
};
inline constexpr std::size_t kPhases = static_cast<std::size_t>(Phase::kCount);

/// Everything one profiled trial accumulates: per-phase, per-subsystem event
/// counts. Plain aggregate, no allocation after construction.
struct Ledger {
  std::uint64_t counts[kPhases][kSubsystems] = {};
  Phase phase = Phase::kSetup;
};

/// The installed ledger of the current thread; null when the trial is not
/// being profiled. One trial runs wholly on one thread (exp::RunContext), so
/// thread_local is exactly the per-trial scope the determinism contract
/// needs: concurrent sweep workers never share a ledger.
inline thread_local Ledger* t_ledger = nullptr;

/// The current trial phase of this thread, tracked even when no ledger is
/// installed: the bench counting allocator (bench/bench_util.h) reads it to
/// split setup-phase allocations from steady-state ones without requiring
/// profiling to be on. Updated only at the four phase transitions per trial,
/// so the always-on cost is nil.
inline thread_local Phase t_phase = Phase::kSetup;

/// RAII installation used by exp::Experiment::run (and tests). Restores the
/// previous ledger so nested installs compose.
class InstallGuard {
 public:
  explicit InstallGuard(Ledger* ledger) : prev_(t_ledger) {
    t_ledger = ledger;
  }
  ~InstallGuard() { t_ledger = prev_; }
  InstallGuard(const InstallGuard&) = delete;
  InstallGuard& operator=(const InstallGuard&) = delete;

 private:
  Ledger* prev_;
};

inline void set_phase(Phase p) {
  t_phase = p;
  if (Ledger* l = t_ledger) l->phase = p;
}

/// The profiled half of count(), kept out of line so that each hot site (the
/// pending set, fast_exponential, Cpu::submit, ...), inlined everywhere,
/// carries only a thread_local load and a branch.
[[gnu::noinline]] inline void bump(Ledger* l, Subsystem sub) {
  ++l->counts[static_cast<std::size_t>(l->phase)]
             [static_cast<std::size_t>(sub)];
}

inline void count(Subsystem sub) {
  Ledger* l = t_ledger;
  if (l == nullptr || sub == Subsystem::kCount) return;  // kCount = untagged
  bump(l, sub);
}

const char* subsystem_name(Subsystem sub);
const char* phase_name(Phase p);

}  // namespace softres::prof

// Hot-path macros: with no ledger installed each site pays one thread_local
// null check.
#define SOFTRES_PROF_COUNT(sub) \
  ::softres::prof::count(::softres::prof::Subsystem::sub)
#define SOFTRES_PROF_PHASE(p) \
  ::softres::prof::set_phase(::softres::prof::Phase::p)
