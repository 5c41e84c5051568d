// Counting global operator new for the traced binary (PERFBENCH_COUNT_ALLOCS).
// Each allocation bumps a per-thread counter chosen by the trial phase
// marker softres::prof::t_phase, which exp::Experiment::run sets to kSetup
// when a trial starts and the testbed advances at ramp-up. Per-thread
// counters need no atomics; Session::issue reads them before and after
// each trial on the worker thread that ran it. The untraced binary compiles
// this file without the hooks and reports zero.

#include <cstdlib>
#include <new>

#include "harness.h"
#include "support/prof.h"

namespace perfbench {
namespace {
thread_local AllocCounts t_counts;
}  // namespace

AllocCounts thread_allocs() { return t_counts; }

}  // namespace perfbench

#if defined(PERFBENCH_COUNT_ALLOCS)

namespace {

void count_one() {
  if (softres::prof::t_phase == softres::prof::Phase::kSetup) {
    ++perfbench::t_counts.setup;
  } else {
    ++perfbench::t_counts.steady;
  }
}

}  // namespace

// noinline keeps GCC from inlining the hooks into callers and then warning
// that a (matching) malloc/free pair mismatches new/delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  count_one();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  count_one();
  return std::malloc(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // PERFBENCH_COUNT_ALLOCS
