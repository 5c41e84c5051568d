#pragma once

// Snapshots and renderers for the self-profiler's count ledger
// (src/support/prof.h). exp::Experiment::run installs a prof::Ledger for a
// profiled trial and copies its counts into RunResult::profile; this layer
// merges those snapshots across trials and renders them as
//
//   1. a per-phase, per-subsystem count table  (render_profile_table)
//   2. one line for quickstart and the flight-recorder footer
//                                              (one_line_profile_summary)
//
// Every count is deterministic (DESIGN.md §11): safe to compare bit-for-bit
// across jobs=1/jobs=4 sweeps.

#include <cstdint>
#include <string>

#include "support/prof.h"

namespace softres::obs {

/// Value-type copy of one or more ledgers, mergeable across trials so a
/// sweep (or a whole bench run) can report a single table.
struct ProfileSnapshot {
  bool enabled = false;  // false => profiling was off; renderers emit nothing
  std::uint64_t counts[prof::kPhases][prof::kSubsystems] = {};

  /// An enabled snapshot of `ledger`'s counts.
  static ProfileSnapshot of(const prof::Ledger& ledger);

  std::uint64_t total_counts() const;
  std::uint64_t total_counts(prof::Phase phase) const;
  /// One subsystem's count summed over every phase.
  std::uint64_t total_counts(prof::Subsystem sub) const;

  /// Accumulate another snapshot (per-trial ledgers -> sweep totals).
  void merge(const ProfileSnapshot& other);
};

/// Human-readable per-subsystem table: counts in each of the four phases,
/// their total and its share of all counts. Empty string when !snap.enabled.
std::string render_profile_table(const ProfileSnapshot& snap);

/// One line for quickstart / report footers: the total count and the top-3
/// subsystems by count. Empty string when !snap.enabled.
std::string one_line_profile_summary(const ProfileSnapshot& snap);

}  // namespace softres::obs
