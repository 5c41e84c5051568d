#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "soft/pool.h"

namespace softres::soft {

/// Role a pool plays in the n-tier topology. Controllers use this to choose
/// headroom policy (web tiers buffer bursts, cf. the allocation algorithm's
/// web_buffer_factor) without knowing anything about tier classes.
enum class PoolRole { kWebWorkers, kAppThreads, kDbConnections };

/// Uniform registration surface for every live-resizable pool in a testbed.
///
/// Tiers register the pools they own (instead of a controller grubbing through
/// per-tier accessors), optionally with floor/ceiling bounds that encode
/// tier-local constraints. Cross-pool consistency work — keeping a JVM's
/// live-thread count in sync with its pools so §III-B GC over-allocation
/// costs are felt, propagating connection counts upstream — hangs off
/// post-resize hooks that a controller runs once per control tick after all
/// resizes of that tick have been applied.
///
/// Registration order is the iteration order; controllers must walk
/// `entries()` in order (never keyed/unordered) to keep trials bit-identical
/// across sweep workers.
class ResizablePoolSet {
 public:
  struct Entry {
    Pool* pool = nullptr;
    PoolRole role = PoolRole::kAppThreads;
    std::size_t floor = 1;    ///< never shrink below this
    std::size_t ceiling = 0;  ///< 0 = no pool-local ceiling
  };

  using Hook = std::function<void()>;

  void add(Pool& pool, PoolRole role, std::size_t floor = 1,
           std::size_t ceiling = 0);

  const std::vector<Entry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Entry whose pool is named `name`, or nullptr. Linear scan — the set is
  /// a handful of pools and this runs at control cadence, not per event.
  const Entry* find(const std::string& name) const;

  /// Register a consistency hook; hooks run in registration order.
  void add_post_resize_hook(Hook hook);
  void run_hooks();

 private:
  std::vector<Entry> entries_;
  std::vector<Hook> hooks_;
};

}  // namespace softres::soft
