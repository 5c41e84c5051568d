#pragma once

// softres-lint: static checker for the determinism & soft-resource contract.
//
// The simulator's headline guarantee is that a sweep with SOFTRES_JOBS=N is
// bit-identical to the serial run. That holds only while simulation-reachable
// code draws entropy exclusively from sim::Rng streams derived via
// exp::RunContext::derive_seed, never reads wall clocks, and never lets
// address- or hash-order-dependent iteration feed a report. This checker
// enforces those rules so a violation fails the build long before it produces
// a subtly wrong Fig-4/Fig-5 curve. Compile-time poisoning in
// src/support/contract.h backstops the same rules for the worst offenders.
//
// Three passes, all built on the shared lexer (lexer.h — comments, strings,
// raw strings, preprocessor lines; no std::regex anywhere):
//   1. per-file token rules (SR001–SR010, SR015) on the stripped code lines;
//   2. an include-graph pass (SR011) checking every #include in src/ against
//      the declared layer DAG in tools/lint/layers.txt, plus cycle detection;
//   3. cross-TU semantic passes: SR012, a flow-sensitive (brace/return/throw
//      aware) Pool::acquire/release balance checker, and SR013, a registry /
//      timeline series-name cross-reference.
//
// Rules (see rule_table()):
//   SR001 banned-rng         std::rand/random_device/mt19937/... anywhere in
//                            scanned code (tests and tools included)
//   SR002 wall-clock         system_clock/steady_clock/gettimeofday/... in
//                            src/ outside src/obs (obs may timestamp exports)
//   SR003 unordered-iter     iteration over std::unordered_{map,set} —
//                            hash-order-dependent, must not feed results
//   SR004 rng-construction   sim::Rng constructed outside src/sim and
//                            RunContext::derive_seed call sites
//   SR005 threading-in-sim   mutex/atomic/thread in src/sim + src/core,
//                            which are single-threaded per trial by contract
//   SR006 address-dependent  thread-id / pointer-to-integer hashing whose
//                            value differs across runs
//   SR007 std-function-hot-path  std::function in src/sim + src/tier per-
//                            event paths; use sim::InlineCallback
//   SR008 stream-writes-in-detector  stream tokens in the src/obs
//                            diagnoser/timeline files; detectors produce
//                            structured Diagnosis data and obs/report.h
//                            renders it
//   SR009 cycle-counter      rdtsc-family intrinsics in sim code and
//                            drivers, std::chrono stopwatches in drivers;
//                            machine timing belongs to the bench_suite
//                            ladder, perfbench or src/obs
//   SR010 direct-pool-resize Pool::set_capacity outside src/soft and the
//                            Governor (src/core/governor*); live resizes
//                            flow through soft::ResizablePoolSet controllers
//   SR011 layer-violation    #include edge that points up or sideways in the
//                            layer DAG (tools/lint/layers.txt), or an include
//                            cycle between files
//   SR012 pool-unit-leak     Pool::acquire grant that escapes its callback
//                            without being adopted into a soft::PoolGuard or
//                            released; early return/throw while holding; raw
//                            release with no acquire in scope
//   SR013 unknown-series     registry/timeline lookup of a series name no
//                            registration site produces (the silent-dead-
//                            detector class); never-read registrations are
//                            reported as notes
//   SR014 sarif-output       meta: SARIF 2.1.0 export of findings
//   SR015 adhoc-quantile     nth_element/partial_sort selection outside
//                            src/sim, src/metrics and src/obs; every
//                            reported percentile comes from sim::SampleSet's
//                            nearest-rank definition
//                            (--sarif out.sarif), consumed by CI to annotate
//                            PR diffs; not a scanning rule
//
// Escape hatch: a line (or the line immediately above it) containing
// `SOFTRES_LINT_ALLOW(SRnnn: reason)` suppresses rule SRnnn there. Legitimate
// uses are rare and must say why — e.g. the ClientFarm master RNG, whose seed
// *is* the derived trial seed.

#include <cstddef>
#include <string>
#include <vector>

namespace softres::lint {

/// Where a file sits in the determinism contract. Derived from its path
/// relative to the scan root, mirroring the repository layout.
enum class Domain {
  kSim,     // src/** except src/obs — fully simulation-reachable
  kObs,     // src/obs — sim-reachable but may export wall-clock timestamps
  kDriver,  // bench/, examples/ — entry points; seed contract still applies
  kTool,    // tools/ — the checker and CI utilities; determinism rules only
  kTest,    // tests/ — harness code; determinism rules only
  kExempt,  // src/support, third-party — not scanned
};

enum class Severity {
  kWarning,  // fails the build (exit 1)
  kNote,     // informational (SR013 never-read registrations)
};

struct Finding {
  std::string file;  // path as given to the scanner
  int line = 0;      // 1-based
  std::string rule;  // "SR001" ... "SR013"
  std::string message;
  std::string excerpt;  // offending source line, trimmed
  Severity severity = Severity::kWarning;
};

struct RuleInfo {
  std::string id;
  std::string name;
  std::string summary;
};

/// Static description of every rule, for --list-rules and docs.
const std::vector<RuleInfo>& rule_table();

/// Classify a repository-relative path ("src/sim/rng.cc"). Paths outside the
/// known layout are exempt.
Domain classify_path(const std::string& rel_path);

/// Scan one file's contents with the per-file rules (SR001–SR010).
/// `rel_path` decides the applicable rules; the file is not read from disk
/// (pass the contents), which keeps the core testable on fixtures and
/// independent of the filesystem.
std::vector<Finding> scan_file(const std::string& rel_path,
                               const std::string& contents);

/// Recursively scan `paths` (files or directories, relative to `root`) for
/// .h/.cc/.cpp files and collect per-file findings (SR001–SR010). Exempt
/// domains are skipped. Returns findings sorted by (file, line, rule).
std::vector<Finding> scan_tree(const std::string& root,
                               const std::vector<std::string>& paths,
                               std::vector<std::string>* errors = nullptr);

/// Cross-TU analysis options.
struct Options {
  /// Layer DAG file for SR011. Empty = "<root>/tools/lint/layers.txt" when
  /// that exists, else the include-graph pass is skipped.
  std::string layers_file;
  /// Repository-relative path prefixes to skip entirely (fixtures, vendored
  /// code). Matched with generic '/' separators.
  std::vector<std::string> exclude_prefixes;
  /// Run the cross-TU passes (SR011–SR013) in addition to SR001–SR010.
  bool cross_tu = true;
};

/// Full analysis result. `findings` gate the build; `notes` are
/// informational and never affect the exit status.
struct Analysis {
  std::vector<Finding> findings;
  std::vector<Finding> notes;
  std::vector<std::string> errors;
  std::size_t files_scanned = 0;
};

/// The whole analyzer: per-file rules plus the include-graph and cross-TU
/// semantic passes over every file under `paths`. Findings and notes are
/// sorted by (file, line, rule).
Analysis analyze_tree(const std::string& root,
                      const std::vector<std::string>& paths,
                      const Options& options = {});

/// "file:line: [SRnnn] message" rendering used by the CLI and tests.
std::string format_finding(const Finding& f);

/// SR014: render an analysis as a SARIF 2.1.0 log (one run, the rule table
/// as reportingDescriptors, findings as warning results and notes as note
/// results with SRCROOT-relative locations).
std::string to_sarif(const Analysis& a);

/// GitHub-flavored markdown summary of an analysis, appended to
/// $GITHUB_STEP_SUMMARY by CI.
std::string to_markdown(const Analysis& a);

/// The default scan set (`src bench examples tools tests`) and the default
/// exclude list (lint test fixtures), shared by the CLI, the ctest gate and
/// the pre-commit hook.
const std::vector<std::string>& default_paths();
const std::vector<std::string>& default_excludes();

}  // namespace softres::lint
