#pragma once

// Self-profiler core (DESIGN.md §11): the always-compilable, opt-in
// instrumentation layer the simulator hot paths include. This header is
// deliberately dependency-free (no sim/, no obs/) so every library under
// src/ can use the macros without a layering cycle; the owning facade —
// obs::Profiler — lives in src/obs/profiler.h and handles installation,
// calibration and rendering.
//
// Two axes, one ledger:
//  * the COUNT axis (`Ledger::counts`): per-phase, per-subsystem event
//    counters. Increment-only integers driven purely by the simulated event
//    sequence, so they are part of the determinism contract — bit-identical
//    between jobs=1 and jobs=4 sweeps (tests/determinism_test.cc).
//  * the TIMING axis (`Ledger::cycles`, the path table): exclusive cycle
//    counts per subsystem and per scope-stack path, read from the CPU cycle
//    counter. Wall-clock-adjacent by nature and therefore explicitly OUTSIDE
//    the determinism contract: never compared across runs, never fed into a
//    RunResult observable, only rendered.
//
// Contract carve-out: src/support is Domain::kExempt for softres-lint and
// the poison pragmas do not cover cycle counters, so the one rdtsc in this
// file is legal here — and ONLY here. Lint rule SR009 bans cycle-counter
// intrinsics everywhere else in sim-reachable code precisely so this stays
// the single timing TU (src/obs may also read clocks; see tools/lint).
//
// Cost when a trial is not being profiled: every macro is one thread_local
// pointer load and a predictable branch. tests/profiler_test.cc holds the
// zero-perturbation line (identical event sequence and results with the
// profiler installed), and defining SOFTRES_PROF_DISABLED compiles every
// macro to nothing for a hard zero-overhead build.

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
  kTimeline,            // obs::Timeline tick + tracing overhead
  kApacheService,       // web-tier request residence (count axis)
  kTomcatService,       // app-tier request residence (count axis)
  kCJdbcService,        // middleware request residence (count axis)
  kMySqlService,        // database request residence (count axis)
  kCount,
};
inline constexpr std::size_t kSubsystems =
    static_cast<std::size_t>(Subsystem::kCount);

/// Trial phases for the count axis. Transitions are driven by the testbed's
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

/// Read the CPU cycle counter. Confined to this header by lint rule SR009.
inline std::uint64_t cycle_counter() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return 0;  // count axis still works; the timing axis reads as zero
#endif
}

/// Everything one profiled trial accumulates. Plain aggregate so the facade
/// can snapshot it with member reads; no allocation after construction.
struct Ledger {
  /// Scope nesting kept per path; deeper nests fold into their depth-8
  /// ancestor path (flame graphs stay readable, accounting stays exact).
  static constexpr std::size_t kPathDepth = 8;
  /// Synchronous grant cascades (pool release -> grant -> tier callback ->
  /// pool release -> ...) bound the live stack well under this.
  static constexpr std::size_t kMaxDepth = 64;
  /// Open-addressed path table; distinct paths number in the tens.
  static constexpr std::size_t kPathSlots = 512;

  // ---- count axis (deterministic) ----
  std::uint64_t counts[kPhases][kSubsystems] = {};

  // ---- timing axis (machine-local, never compared) ----
  std::uint64_t cycles[kSubsystems] = {};         // exclusive cycles
  std::uint64_t scope_entries[kSubsystems] = {};  // timed scope entries
  struct PathCell {
    std::uint64_t key = 0;  // kPathDepth x (subsystem+1) bytes, root lowest
    std::uint64_t cycles = 0;  // exclusive
    std::uint64_t count = 0;
  };
  PathCell paths[kPathSlots] = {};
  std::uint64_t path_overflow_cycles = 0;  // table full (never in practice)

  struct Frame {
    std::uint64_t start = 0;
    std::uint64_t child_cycles = 0;
    std::uint64_t path_key = 0;
    Subsystem sub = Subsystem::kCount;
  };
  Frame stack[kMaxDepth];
  std::size_t depth = 0;

  Phase phase = Phase::kSetup;

  void add_path(std::uint64_t key, std::uint64_t exclusive) {
    std::size_t slot =
        static_cast<std::size_t>(key * 0x9E3779B97F4A7C15ull >> 55) %
        kPathSlots;
    for (std::size_t probe = 0; probe < kPathSlots; ++probe) {
      PathCell& cell = paths[slot];
      if (cell.key == key || cell.key == 0) {
        cell.key = key;
        cell.cycles += exclusive;
        ++cell.count;
        return;
      }
      slot = (slot + 1) % kPathSlots;
    }
    path_overflow_cycles += exclusive;
  }
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

/// RAII installation used by obs::Profiler (and tests). Restores the
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

inline void count(Subsystem sub) {
  Ledger* l = t_ledger;
  if (l == nullptr || sub == Subsystem::kCount) return;  // kCount = untagged
  ++l->counts[static_cast<std::size_t>(l->phase)]
             [static_cast<std::size_t>(sub)];
}

/// Scoped exclusive-cycle timer + count. The constructor bumps the count
/// axis and opens a timing frame; the destructor closes it, crediting this
/// subsystem with (elapsed - child cycles) so nested scopes never double
/// count. When no ledger is installed the whole object is a null check.
class ScopeTimer {
 public:
  // The unprofiled path must stay tiny AND stay out of the inliner's way:
  // the hot sites (PendingSet::push/pop, fast_exponential, Cpu::submit)
  // were deliberately made inline-everywhere in the PR-4 optimization, and
  // inlining the full enter/leave bodies there bloats them past inline
  // limits — a measured >20% whole-sim regression with profiling OFF. So
  // the ctor/dtor inline only a thread_local load and a branch, and the
  // profiled path lives in noinline cold members.
  explicit ScopeTimer(Subsystem sub) : ledger_(t_ledger) {
    if (ledger_ != nullptr) enter(sub);
  }

  ~ScopeTimer() {
    if (ledger_ != nullptr) leave();
  }

  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  [[gnu::noinline]] void enter(Subsystem sub) {
    Ledger* l = ledger_;
    ++l->counts[static_cast<std::size_t>(l->phase)]
               [static_cast<std::size_t>(sub)];
    if (l->depth >= Ledger::kMaxDepth) {
      ledger_ = nullptr;  // count recorded; too deep to time
      return;
    }
    Ledger::Frame& f = l->stack[l->depth];
    f.sub = sub;
    f.child_cycles = 0;
    const std::uint64_t parent_key =
        l->depth == 0 ? 0 : l->stack[l->depth - 1].path_key;
    const std::size_t level =
        l->depth < Ledger::kPathDepth ? l->depth : Ledger::kPathDepth - 1;
    // Depth > kPathDepth folds into the level-8 ancestor: same key suffix.
    f.path_key =
        l->depth < Ledger::kPathDepth
            ? parent_key |
                  (static_cast<std::uint64_t>(static_cast<std::uint8_t>(sub) +
                                              1)
                   << (8 * level))
            : parent_key;
    ++l->scope_entries[static_cast<std::size_t>(sub)];
    ++l->depth;
    f.start = cycle_counter();
  }

  [[gnu::noinline]] void leave() {
    Ledger* l = ledger_;
    const std::uint64_t now = cycle_counter();
    --l->depth;
    const Ledger::Frame& f = l->stack[l->depth];
    const std::uint64_t elapsed = now - f.start;
    const std::uint64_t exclusive =
        elapsed > f.child_cycles ? elapsed - f.child_cycles : 0;
    l->cycles[static_cast<std::size_t>(f.sub)] += exclusive;
    l->add_path(f.path_key, exclusive);
    if (l->depth > 0) l->stack[l->depth - 1].child_cycles += elapsed;
  }

  Ledger* ledger_;
};

const char* subsystem_name(Subsystem sub);
const char* phase_name(Phase p);

}  // namespace softres::prof

// Scope macros for the hot paths. SOFTRES_PROF_DISABLED compiles them to
// nothing (the hard kill switch the zero-overhead criterion names); the
// default build pays one thread_local null check per site.
#if defined(SOFTRES_PROF_DISABLED)
#define SOFTRES_PROF_SCOPE(sub)
#define SOFTRES_PROF_COUNT(sub)
#define SOFTRES_PROF_PHASE(p)
#else
#define SOFTRES_PROF_CONCAT2(a, b) a##b
#define SOFTRES_PROF_CONCAT(a, b) SOFTRES_PROF_CONCAT2(a, b)
#define SOFTRES_PROF_SCOPE(sub)                              \
  ::softres::prof::ScopeTimer SOFTRES_PROF_CONCAT(           \
      softres_prof_scope_, __LINE__)(::softres::prof::Subsystem::sub)
#define SOFTRES_PROF_COUNT(sub) \
  ::softres::prof::count(::softres::prof::Subsystem::sub)
#define SOFTRES_PROF_PHASE(p) \
  ::softres::prof::set_phase(::softres::prof::Phase::p)
#endif
