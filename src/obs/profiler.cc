#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <sstream>

namespace softres::prof {

// Definitions for the declarations in support/prof.h. They live here so the
// dependency-free core header stays header-only; only code that links
// softres_obs (bench, examples, tests) renders names.
const char* subsystem_name(Subsystem sub) {
  switch (sub) {
    case Subsystem::kEventQueuePush: return "event_queue_push";
    case Subsystem::kEventQueuePop: return "event_queue_pop";
    case Subsystem::kEventQueueCancel: return "event_queue_cancel";
    case Subsystem::kDispatch: return "dispatch";
    case Subsystem::kDistSample: return "dist_sample";
    case Subsystem::kPoolService: return "pool_service";
    case Subsystem::kCpuService: return "cpu_service";
    case Subsystem::kJvmService: return "jvm_service";
    case Subsystem::kLinkService: return "link_service";
    case Subsystem::kArenaAlloc: return "arena_alloc";
    case Subsystem::kTimeline: return "timeline";
    case Subsystem::kApacheService: return "apache_service";
    case Subsystem::kTomcatService: return "tomcat_service";
    case Subsystem::kCJdbcService: return "cjdbc_service";
    case Subsystem::kMySqlService: return "mysql_service";
    case Subsystem::kCount: break;
  }
  return "unknown";
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kSetup: return "setup";
    case Phase::kRampUp: return "ramp_up";
    case Phase::kMeasure: return "measure";
    case Phase::kRampDown: return "ramp_down";
    case Phase::kCount: break;
  }
  return "unknown";
}

}  // namespace softres::prof

namespace softres::obs {

ProfileSnapshot ProfileSnapshot::of(const prof::Ledger& ledger) {
  ProfileSnapshot snap;
  snap.enabled = true;
  for (std::size_t p = 0; p < prof::kPhases; ++p) {
    for (std::size_t s = 0; s < prof::kSubsystems; ++s) {
      snap.counts[p][s] = ledger.counts[p][s];
    }
  }
  return snap;
}

std::uint64_t ProfileSnapshot::total_counts() const {
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < prof::kPhases; ++p) {
    total += total_counts(static_cast<prof::Phase>(p));
  }
  return total;
}

std::uint64_t ProfileSnapshot::total_counts(prof::Phase phase) const {
  std::uint64_t total = 0;
  const std::size_t p = static_cast<std::size_t>(phase);
  for (std::size_t s = 0; s < prof::kSubsystems; ++s) total += counts[p][s];
  return total;
}

std::uint64_t ProfileSnapshot::total_counts(prof::Subsystem sub) const {
  std::uint64_t total = 0;
  const std::size_t s = static_cast<std::size_t>(sub);
  for (std::size_t p = 0; p < prof::kPhases; ++p) total += counts[p][s];
  return total;
}

void ProfileSnapshot::merge(const ProfileSnapshot& other) {
  if (!other.enabled) return;
  enabled = true;
  for (std::size_t p = 0; p < prof::kPhases; ++p) {
    for (std::size_t s = 0; s < prof::kSubsystems; ++s) {
      counts[p][s] += other.counts[p][s];
    }
  }
}

namespace {

double share_pct(std::uint64_t part, std::uint64_t total) {
  return total > 0 ? 100.0 * static_cast<double>(part) /
                         static_cast<double>(total)
                   : 0.0;
}

}  // namespace

std::string render_profile_table(const ProfileSnapshot& snap) {
  if (!snap.enabled) return "";
  std::ostringstream os;
  const std::uint64_t total = snap.total_counts();
  os << "profile: per-subsystem event counts\n";
  char line[256];
  std::snprintf(line, sizeof line, "  %-18s", "subsystem");
  os << line;
  for (std::size_t p = 0; p < prof::kPhases; ++p) {
    std::snprintf(line, sizeof line, " %12s",
                  prof::phase_name(static_cast<prof::Phase>(p)));
    os << line;
  }
  std::snprintf(line, sizeof line, " %12s %7s\n", "total", "share");
  os << line;
  // One line per row: the count in each phase, then their sum and share.
  const auto row = [&](const char* name, auto phase_count) {
    std::snprintf(line, sizeof line, "  %-18s", name);
    os << line;
    std::uint64_t row_total = 0;
    for (std::size_t p = 0; p < prof::kPhases; ++p) {
      const std::uint64_t n = phase_count(p);
      row_total += n;
      std::snprintf(line, sizeof line, " %12llu",
                    static_cast<unsigned long long>(n));
      os << line;
    }
    std::snprintf(line, sizeof line, " %12llu %6.1f%%\n",
                  static_cast<unsigned long long>(row_total),
                  share_pct(row_total, total));
    os << line;
  };
  for (std::size_t s = 0; s < prof::kSubsystems; ++s) {
    const auto sub = static_cast<prof::Subsystem>(s);
    if (snap.total_counts(sub) == 0) continue;
    row(prof::subsystem_name(sub),
        [&](std::size_t p) { return snap.counts[p][s]; });
  }
  row("total", [&](std::size_t p) {
    return snap.total_counts(static_cast<prof::Phase>(p));
  });
  return os.str();
}

std::string one_line_profile_summary(const ProfileSnapshot& snap) {
  if (!snap.enabled) return "";
  const std::uint64_t total = snap.total_counts();
  std::ostringstream os;
  os << "profile: " << total << " counts";
  std::size_t order[prof::kSubsystems];
  for (std::size_t s = 0; s < prof::kSubsystems; ++s) order[s] = s;
  // Stable: ties keep enum order, so the line is deterministic.
  std::stable_sort(std::begin(order), std::end(order),
                   [&snap](std::size_t a, std::size_t b) {
                     return snap.total_counts(static_cast<prof::Subsystem>(a)) >
                            snap.total_counts(static_cast<prof::Subsystem>(b));
                   });
  for (std::size_t i = 0; i < 3; ++i) {
    const auto sub = static_cast<prof::Subsystem>(order[i]);
    const std::uint64_t n = snap.total_counts(sub);
    if (n == 0) break;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s %s %.1f%%", i == 0 ? ";" : ",",
                  prof::subsystem_name(sub), share_pct(n, total));
    os << buf;
  }
  return os.str();
}

}  // namespace softres::obs
