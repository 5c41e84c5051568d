#pragma once

// Per-trial flight-recorder report: a single self-contained HTML file with
// inline-SVG timelines for every recorded series over the whole trial
// (diagnoser evidence windows shaded on the series they cite), the diagnosis
// table, and the per-tier latency breakdown. This is the one sanctioned rendering path for timeline
// and diagnoser data (softres-lint SR008 bans stream writes in the detectors
// themselves — a Diagnosis is data; this file turns it into pixels).
//
// Enabled per run via SOFTRES_REPORT_HTML=<path>: exp::Experiment writes one
// file per trial, deriving distinct names from the trial's configuration.

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/diagnoser.h"
#include "obs/profiler.h"
#include "obs/tail.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace softres::obs {

/// Trial identification shown in the report header. All strings are
/// free-form; the renderer escapes them.
struct ReportMeta {
  std::string title;       // e.g. "bottleneck_hunt starved trial"
  std::string topology;    // e.g. "1/2/1/2"
  std::string allocation;  // e.g. "apache=400 tomcat=6 cjdbc=60"
  std::string workload;    // e.g. "6200 users"
  sim::SimTime measure_start = 0.0;
  sim::SimTime measure_end = 0.0;
  /// Extra key/value rows appended to the header table (throughput, goodput,
  /// response time, ...).
  std::vector<std::pair<std::string, std::string>> extra;

  /// One live pool resize (e.g. a core::Governor action). Rendered as a
  /// vertical annotation mark on every timeline series labelled with that
  /// pool, plus a "Pool resizes" table — the lanes that distinguish
  /// "load grew" from "capacity changed" when reading a governed trial.
  struct ResizeMark {
    sim::SimTime at = 0.0;
    std::string pool;
    std::size_t from = 0;
    std::size_t to = 0;
  };
  std::vector<ResizeMark> resizes;
};

/// Render the full flight-recorder page. `breakdown` is optional (trials run
/// without tracing simply omit that section); `profile` likewise (a one-line
/// self-profiler summary is appended to the footer when present). `tail`
/// adds the "Why is the tail slow" cohort blame section, and `traces` —
/// needed only alongside `tail` — supplies the assembled span trees for the
/// p99+ exemplar waterfall timelines.
void write_flight_recorder_html(std::ostream& os, const ReportMeta& meta,
                                const Timeline& timeline,
                                const Diagnosis& diagnosis,
                                const LatencyBreakdown* breakdown = nullptr,
                                const ProfileSnapshot* profile = nullptr,
                                const TailAttribution* tail = nullptr,
                                const TraceCollector* traces = nullptr);

/// Convenience wrapper writing to `path`; returns false when the file cannot
/// be written (exp::Experiment turns that into an error naming the path).
bool write_flight_recorder_html(const std::string& path,
                                const ReportMeta& meta,
                                const Timeline& timeline,
                                const Diagnosis& diagnosis,
                                const LatencyBreakdown* breakdown = nullptr,
                                const ProfileSnapshot* profile = nullptr,
                                const TailAttribution* tail = nullptr,
                                const TraceCollector* traces = nullptr);

}  // namespace softres::obs
