// Tests for tools/lint (softres-lint), the determinism & soft-resource
// contract checker. Two layers:
//  * scan_file unit tests on inline snippets — rule mechanics, comment and
//    string stripping, the SOFTRES_LINT_ALLOW escape hatch;
//  * scan_tree over tests/lint/fixtures (a miniature repository layout,
//    SOFTRES_LINT_FIXTURE_DIR) — exact rule IDs and line numbers per seeded
//    violation, and zero findings on the clean fixtures;
//  * analyze_tree over tests/lint/fixtures/crosstu/{graph,pool,series} —
//    golden (file, line, rule) triples for the cross-TU passes SR011-SR013,
//    plus the SARIF/markdown renderings of those analyses.
// The real tree's cleanliness is enforced separately by the
// softres_lint_clean ctest (tools/lint/CMakeLists.txt).

#include "lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace lint = softres::lint;

namespace {

std::vector<std::string> rules_of(const std::vector<lint::Finding>& fs) {
  std::vector<std::string> out;
  for (const auto& f : fs) out.push_back(f.rule);
  return out;
}

}  // namespace

TEST(LintClassifyTest, DomainFromPath) {
  EXPECT_EQ(lint::classify_path("src/sim/rng.cc"), lint::Domain::kSim);
  EXPECT_EQ(lint::classify_path("src/exp/parallel.cc"), lint::Domain::kSim);
  EXPECT_EQ(lint::classify_path("src/obs/registry.cc"), lint::Domain::kObs);
  EXPECT_EQ(lint::classify_path("src/support/contract.h"),
            lint::Domain::kExempt);
  EXPECT_EQ(lint::classify_path("bench/bench_fig4.cpp"),
            lint::Domain::kDriver);
  EXPECT_EQ(lint::classify_path("examples/quickstart.cpp"),
            lint::Domain::kDriver);
  EXPECT_EQ(lint::classify_path("tests/rng_test.cc"), lint::Domain::kTest);
  EXPECT_EQ(lint::classify_path("tools/lint/lint.cc"), lint::Domain::kTool);
  EXPECT_EQ(lint::classify_path("third_party/x.cc"), lint::Domain::kExempt);
}

TEST(LintScanTest, ToolAndTestDomainsKeepDeterminismRulesOnly) {
  // The entropy ban binds everywhere, harness code included...
  EXPECT_EQ(rules_of(lint::scan_file("tools/lint/x.cc",
                                     "#include <random>\n")),
            (std::vector<std::string>{"SR001"}));
  EXPECT_EQ(rules_of(lint::scan_file("tests/x_test.cc",
                                     "std::mt19937 gen(1);\n")),
            (std::vector<std::string>{"SR001"}));
  // ...but tests construct Rng streams and resize pools by design.
  EXPECT_TRUE(lint::scan_file("tests/x_test.cc", "sim::Rng r(123);\n").empty());
  EXPECT_TRUE(lint::scan_file("tools/x.cc", "sim::Rng r(123);\n").empty());
  EXPECT_TRUE(
      lint::scan_file("tests/x_test.cc", "pool->set_capacity(64);\n").empty());
}

TEST(LintScanTest, BannedRngTokens) {
  const auto fs = lint::scan_file(
      "src/tier/x.cc", "#include <random>\nstd::mt19937 gen(1);\n");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].rule, "SR001");
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(fs[1].rule, "SR001");
  EXPECT_EQ(fs[1].line, 2);
}

TEST(LintScanTest, WallClockOnlyOutsideObs) {
  const std::string code = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_EQ(rules_of(lint::scan_file("src/exp/x.cc", code)),
            (std::vector<std::string>{"SR002"}));
  EXPECT_TRUE(lint::scan_file("src/obs/x.cc", code).empty());
}

TEST(LintScanTest, CommentsAndStringsAreStripped) {
  EXPECT_TRUE(lint::scan_file("src/sim/x.cc",
                              "// std::random_device in a comment\n"
                              "/* system_clock in a block\n"
                              "   spanning lines */\n"
                              "const char* s = \"std::rand()\";\n")
                  .empty());
  // Raw string bodies are stripped too, across lines and with a delimiter.
  EXPECT_TRUE(lint::scan_file("src/sim/x.cc",
                              "const char* r = R\"(std::mt19937 g;)\";\n"
                              "const char* d = R\"x(\n"
                              "  std::random_device rd;\n"
                              ")x\";\n")
                  .empty());
}

TEST(LintScanTest, NearMissIdentifiersDoNotFire) {
  EXPECT_TRUE(lint::scan_file("src/sim/x.cc",
                              "int threads_active = 0;\n"
                              "double mean_wait_time() { return 0.0; }\n"
                              "double operand(double x) { return x; }\n")
                  .empty());
}

TEST(LintScanTest, UnorderedIterationNotDeclarationOrLookup) {
  const std::string code =
      "std::unordered_map<std::string, int> seen;\n"  // declaration: ok
      "auto it = seen.find(\"k\");\n"                 // lookup: ok
      "for (const auto& kv : seen) use(kv);\n";       // iteration: SR003
  const auto fs = lint::scan_file("src/obs/x.cc", code);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "SR003");
  EXPECT_EQ(fs[0].line, 3);
}

TEST(LintScanTest, RngConstructionSanctionedSites) {
  const std::string ctor = "sim::Rng local(123);\n";
  EXPECT_EQ(rules_of(lint::scan_file("src/tier/x.cc", ctor)),
            (std::vector<std::string>{"SR004"}));
  EXPECT_EQ(rules_of(lint::scan_file("bench/x.cpp", ctor)),
            (std::vector<std::string>{"SR004"}));
  // Sanctioned: the Rng implementation itself and RunContext.
  EXPECT_TRUE(lint::scan_file("src/sim/rng.cc", ctor).empty());
  EXPECT_TRUE(lint::scan_file("src/exp/run_context.cc", ctor).empty());
  // References and by-value parameters are not constructions.
  EXPECT_TRUE(lint::scan_file("src/tier/x.cc",
                              "void f(sim::Rng& rng);\n"
                              "void g(sim::Rng rng);\n")
                  .empty());
}

TEST(LintScanTest, ThreadingOnlyInSimAndCore) {
  const std::string code = "#include <mutex>\n";
  EXPECT_EQ(rules_of(lint::scan_file("src/sim/x.cc", code)),
            (std::vector<std::string>{"SR005"}));
  EXPECT_EQ(rules_of(lint::scan_file("src/core/x.cc", code)),
            (std::vector<std::string>{"SR005"}));
  // exp hosts the ParallelExecutor: concurrency is legitimate there.
  EXPECT_TRUE(lint::scan_file("src/exp/parallel.cc", code).empty());
}

TEST(LintScanTest, AllowEscapeHatchSameLineAndAbove) {
  EXPECT_TRUE(
      lint::scan_file("src/tier/x.cc",
                      "sim::Rng r(1);  // SOFTRES_LINT_ALLOW(SR004: derived)\n")
          .empty());
  EXPECT_TRUE(
      lint::scan_file("src/tier/x.cc",
                      "// SOFTRES_LINT_ALLOW(SR004: derived)\n"
                      "sim::Rng r(1);\n")
          .empty());
  // The annotation only covers its own rule...
  EXPECT_EQ(rules_of(lint::scan_file(
                "src/tier/x.cc",
                "std::mt19937 g;  // SOFTRES_LINT_ALLOW(SR004: wrong rule)\n")),
            (std::vector<std::string>{"SR001"}));
  // ...and only one line of distance.
  EXPECT_EQ(rules_of(lint::scan_file("src/tier/x.cc",
                                     "// SOFTRES_LINT_ALLOW(SR004: too far)\n"
                                     "\n"
                                     "sim::Rng r(1);\n")),
            (std::vector<std::string>{"SR004"}));
}

TEST(LintScanTest, StdFunctionOnlyInHotPathDomains) {
  const std::string code = "std::function<void()> cb;\n";
  EXPECT_EQ(rules_of(lint::scan_file("src/sim/x.cc", code)),
            (std::vector<std::string>{"SR007"}));
  EXPECT_EQ(rules_of(lint::scan_file("src/tier/x.cc", code)),
            (std::vector<std::string>{"SR007"}));
  // Cold domains keep std::function: the executor queue, metric sources.
  EXPECT_TRUE(lint::scan_file("src/exp/parallel.h", code).empty());
  EXPECT_TRUE(lint::scan_file("src/obs/registry.h", code).empty());
  EXPECT_TRUE(lint::scan_file("bench/x.cpp", code).empty());
  // The escape hatch works like every other rule's.
  EXPECT_TRUE(
      lint::scan_file("src/tier/x.cc",
                      "// SOFTRES_LINT_ALLOW(SR007: cold reporting path)\n" +
                          code)
          .empty());
  // Mentions in comments and near-miss identifiers do not fire.
  EXPECT_TRUE(lint::scan_file("src/sim/x.cc",
                              "// replaces std::function<void()> storage\n"
                              "InlineCallback fn;\n"
                              "int function_count = 0;\n")
                  .empty());
}

TEST(LintScanTest, StreamWritesBannedInDiagnoserAndTimelineFiles) {
  const std::string code = "std::cout << \"verdict\";\n";
  EXPECT_EQ(rules_of(lint::scan_file("src/obs/diagnoser.cc", code)),
            (std::vector<std::string>{"SR008"}));
  EXPECT_EQ(rules_of(lint::scan_file("src/obs/timeline.cc", code)),
            (std::vector<std::string>{"SR008"}));
  EXPECT_EQ(rules_of(lint::scan_file("src/obs/diagnoser_rules.h", code)),
            (std::vector<std::string>{"SR008"}));
  // Out of scope: the rest of obs renders and exports on purpose.
  EXPECT_TRUE(lint::scan_file("src/obs/report.cc", code).empty());
  EXPECT_TRUE(lint::scan_file("src/obs/registry.cc", code).empty());
  EXPECT_TRUE(lint::scan_file("src/exp/experiment.cc", code).empty());
  // Stream headers fire even without a write on the same line...
  EXPECT_EQ(rules_of(lint::scan_file("src/obs/timeline.cc",
                                     "#include <sstream>\n")),
            (std::vector<std::string>{"SR008"}));
  // ...but snprintf into a buffer is the sanctioned labelling tool.
  EXPECT_TRUE(lint::scan_file("src/obs/diagnoser.cc",
                              "#include <cstdio>\n"
                              "void f() { std::snprintf(nullptr, 0, \"x\"); }\n")
                  .empty());
  // The escape hatch works like every other rule's.
  EXPECT_TRUE(
      lint::scan_file("src/obs/diagnoser.cc",
                      "// SOFTRES_LINT_ALLOW(SR008: debugging aid)\n" + code)
          .empty());
}

TEST(LintScanTest, CycleCountersOutsideProfilerTu) {
  const std::string code = "auto t = __builtin_ia32_rdtsc();\n";
  EXPECT_EQ(rules_of(lint::scan_file("src/tier/x.cc", code)),
            (std::vector<std::string>{"SR009"}));
  EXPECT_EQ(rules_of(lint::scan_file("bench/x.cpp", code)),
            (std::vector<std::string>{"SR009"}));
  // Exempt by domain: src/support and src/obs.
  EXPECT_TRUE(lint::scan_file("src/support/prof.h", code).empty());
  EXPECT_TRUE(lint::scan_file("src/obs/profiler.cc", code).empty());
  // std::chrono stopwatches in drivers are SR009; inside src/ the same line
  // already belongs to SR002 (wall-clock) and must not double-report.
  const std::string chrono = "auto t0 = std::chrono::steady_clock::now();\n";
  EXPECT_EQ(rules_of(lint::scan_file("bench/x.cpp", chrono)),
            (std::vector<std::string>{"SR009"}));
  EXPECT_EQ(rules_of(lint::scan_file("src/exp/x.cc", chrono)),
            (std::vector<std::string>{"SR002"}));
  // The escape hatch works like every other rule's.
  EXPECT_TRUE(
      lint::scan_file("src/tier/x.cc",
                      "// SOFTRES_LINT_ALLOW(SR009: calibration harness)\n" +
                          code)
          .empty());
}

TEST(LintScanTest, PoolResizeOnlyInSanctionedControllers) {
  const std::string code = "pool->set_capacity(64);\n";
  EXPECT_EQ(rules_of(lint::scan_file("src/tier/x.cc", code)),
            (std::vector<std::string>{"SR010"}));
  EXPECT_EQ(rules_of(lint::scan_file("bench/x.cpp", code)),
            (std::vector<std::string>{"SR010"}));
  EXPECT_EQ(rules_of(lint::scan_file("examples/x.cpp", code)),
            (std::vector<std::string>{"SR010"}));
  EXPECT_EQ(rules_of(lint::scan_file("src/exp/adaptive.cc", code)),
            (std::vector<std::string>{"SR010"}));
  // Sanctioned: the pool mechanism itself and the one controller.
  EXPECT_TRUE(lint::scan_file("src/soft/pool.cc", code).empty());
  EXPECT_TRUE(lint::scan_file("src/core/governor.cc", code).empty());
  // Near-miss identifiers and comment mentions do not fire.
  EXPECT_TRUE(lint::scan_file("src/tier/x.cc",
                              "// resizes go through set_capacity\n"
                              "int set_capacity_marker = 0;\n")
                  .empty());
  // The escape hatch works like every other rule's.
  EXPECT_TRUE(
      lint::scan_file("src/tier/x.cc",
                      "// SOFTRES_LINT_ALLOW(SR010: test-only shim)\n" + code)
          .empty());
}

TEST(LintScanTest, QuantileSelectionOnlyInStatsHomes) {
  const std::string code = "std::nth_element(v.begin(), mid, v.end());\n";
  EXPECT_EQ(rules_of(lint::scan_file("src/tier/x.cc", code)),
            (std::vector<std::string>{"SR015"}));
  EXPECT_EQ(rules_of(lint::scan_file("src/exp/x.cc", code)),
            (std::vector<std::string>{"SR015"}));
  EXPECT_EQ(rules_of(lint::scan_file("bench/x.cpp", code)),
            (std::vector<std::string>{"SR015"}));
  // Sanctioned: the SampleSet implementation, metrics and obs layers — the
  // places the one nearest-rank quantile definition lives — plus harnesses.
  EXPECT_TRUE(lint::scan_file("src/sim/stats.cc", code).empty());
  EXPECT_TRUE(lint::scan_file("src/metrics/sla.cc", code).empty());
  EXPECT_TRUE(lint::scan_file("src/obs/tail.cc", code).empty());
  EXPECT_TRUE(lint::scan_file("tests/x_test.cc", code).empty());
  EXPECT_TRUE(lint::scan_file("tools/x.cc", code).empty());
  // partial_sort and partial_sort_copy are separate tokens: word-boundary
  // matching keeps the former from firing inside the latter, so each fires
  // exactly once per line.
  EXPECT_EQ(rules_of(lint::scan_file(
                "src/tier/x.cc",
                "std::partial_sort_copy(a.begin(), a.end(), b.begin(), "
                "b.end());\n")),
            (std::vector<std::string>{"SR015"}));
  // Near-miss identifiers and comment mentions do not fire.
  EXPECT_TRUE(lint::scan_file("src/tier/x.cc",
                              "// sorted via std::nth_element upstream\n"
                              "int nth_element_cache = 0;\n"
                              "bool partial = partial_sorted();\n")
                  .empty());
  // The escape hatch works like every other rule's.
  EXPECT_TRUE(
      lint::scan_file("src/tier/x.cc",
                      "// SOFTRES_LINT_ALLOW(SR015: top-k on a local copy)\n" +
                          code)
          .empty());
}

TEST(LintScanTest, RuleTableCoversAllEmittedRules) {
  std::set<std::string> ids;
  for (const auto& r : lint::rule_table()) ids.insert(r.id);
  EXPECT_EQ(ids, (std::set<std::string>{"SR001", "SR002", "SR003", "SR004",
                                        "SR005", "SR006", "SR007", "SR008",
                                        "SR009", "SR010", "SR011", "SR012",
                                        "SR013", "SR014", "SR015"}));
}

// ---- Fixture-tree scan: exact rule IDs and lines per seeded violation ----

TEST(LintFixtureTest, DetectsEverySeededViolationExactly) {
  std::vector<std::string> errors;
  const auto fs = lint::scan_tree(SOFTRES_LINT_FIXTURE_DIR, {"src"}, &errors);
  EXPECT_TRUE(errors.empty());

  // (file, line, rule) triples, sorted by (file, line, rule) — the scanner's
  // output contract. One entry per expected finding.
  struct Expected {
    const char* file;
    int line;
    const char* rule;
  };
  const std::vector<Expected> expected = {
      {"src/core/bad_mutex.cc", 4, "SR005"},
      {"src/core/bad_mutex.cc", 5, "SR005"},
      {"src/core/bad_mutex.cc", 10, "SR005"},
      {"src/core/bad_mutex.cc", 15, "SR005"},
      {"src/core/bad_unordered.cc", 14, "SR003"},
      {"src/core/bad_unordered.cc", 17, "SR003"},
      {"src/exp/bad_clock.cc", 9, "SR002"},
      {"src/exp/bad_clock.cc", 10, "SR002"},
      {"src/exp/bad_clock.cc", 11, "SR002"},
      {"src/exp/bad_quantile.cc", 10, "SR015"},
      {"src/exp/bad_quantile.cc", 15, "SR015"},
      {"src/exp/bad_quantile.cc", 17, "SR015"},
      {"src/obs/diagnoser_bad_print.cc", 3, "SR008"},
      {"src/obs/diagnoser_bad_print.cc", 4, "SR008"},
      {"src/obs/diagnoser_bad_print.cc", 10, "SR008"},
      {"src/obs/diagnoser_bad_print.cc", 13, "SR008"},
      {"src/obs/diagnoser_bad_print.cc", 18, "SR008"},
      {"src/sim/bad_rng.cc", 3, "SR001"},
      {"src/sim/bad_rng.cc", 8, "SR001"},
      {"src/sim/bad_rng.cc", 9, "SR001"},
      {"src/sim/bad_thread_id.cc", 5, "SR005"},
      {"src/sim/bad_thread_id.cc", 10, "SR006"},
      {"src/sim/bad_thread_id.cc", 14, "SR005"},
      {"src/sim/bad_thread_id.cc", 14, "SR006"},
      {"src/tier/bad_rdtsc.cc", 10, "SR009"},
      {"src/tier/bad_rdtsc.cc", 13, "SR009"},
      {"src/tier/bad_rdtsc.cc", 20, "SR009"},
      {"src/tier/bad_rng_ctor.cc", 15, "SR004"},
      {"src/tier/bad_rng_ctor.cc", 19, "SR004"},
      {"src/tier/bad_set_capacity.cc", 12, "SR010"},
      {"src/tier/bad_set_capacity.cc", 15, "SR010"},
      {"src/tier/bad_std_function.cc", 15, "SR007"},
      {"src/tier/bad_std_function.cc", 19, "SR007"},
      {"src/tier/bad_std_function.cc", 22, "SR007"},
  };
  ASSERT_EQ(fs.size(), expected.size())
      << [&] {
           std::string got;
           for (const auto& f : fs) got += lint::format_finding(f) + "\n";
           return got;
         }();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fs[i].file, expected[i].file) << "finding " << i;
    EXPECT_EQ(fs[i].line, expected[i].line) << "finding " << i;
    EXPECT_EQ(fs[i].rule, expected[i].rule) << "finding " << i;
  }
}

TEST(LintFixtureTest, CleanFixturesProduceNoFindings) {
  for (const char* clean : {"src/obs/ok_clock.cc", "src/exp/ok_allowed.cc",
                            "src/exp/ok_near_miss.cc"}) {
    std::vector<std::string> errors;
    const auto fs = lint::scan_tree(SOFTRES_LINT_FIXTURE_DIR, {clean}, &errors);
    EXPECT_TRUE(errors.empty()) << clean;
    std::string got;
    for (const auto& f : fs) got += lint::format_finding(f) + "\n";
    EXPECT_TRUE(fs.empty()) << clean << " produced:\n" << got;
  }
}

TEST(LintFixtureTest, FormatFindingIsClickable) {
  lint::Finding f;
  f.file = "src/sim/bad_rng.cc";
  f.line = 8;
  f.rule = "SR001";
  f.message = "std::random_device is banned";
  f.excerpt = "std::random_device rd;";
  const std::string text = lint::format_finding(f);
  EXPECT_NE(text.find("src/sim/bad_rng.cc:8: [SR001]"), std::string::npos);
  EXPECT_NE(text.find("std::random_device rd;"), std::string::npos);
  f.severity = lint::Severity::kNote;
  EXPECT_NE(lint::format_finding(f).find("[note SR001]"), std::string::npos);
}

// ---- Cross-TU passes: golden triples over the crosstu fixture trees ----

namespace {

struct Expected {
  const char* file;
  int line;
  const char* rule;
};

void expect_triples(const std::vector<lint::Finding>& fs,
                    const std::vector<Expected>& expected) {
  ASSERT_EQ(fs.size(), expected.size()) << [&] {
    std::string got;
    for (const auto& f : fs) got += lint::format_finding(f) + "\n";
    return got;
  }();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fs[i].file, expected[i].file) << "finding " << i;
    EXPECT_EQ(fs[i].line, expected[i].line) << "finding " << i;
    EXPECT_EQ(fs[i].rule, expected[i].rule) << "finding " << i;
  }
}

}  // namespace

TEST(LintCrossTuTest, IncludeGraphGolden) {
  lint::Options opt;
  opt.layers_file = SOFTRES_LINT_FIXTURE_DIR "/crosstu/graph/layers.txt";
  const auto a = lint::analyze_tree(SOFTRES_LINT_FIXTURE_DIR "/crosstu/graph",
                                    {"src"}, opt);
  EXPECT_TRUE(a.errors.empty());
  expect_triples(a.findings, {
                                 {"src/base/bad_up.h", 3, "SR011"},
                                 {"src/mid/bad_side.h", 3, "SR011"},
                                 {"src/mid/cycle_b.h", 3, "SR011"},
                             });
  ASSERT_EQ(a.findings.size(), 3u);
  EXPECT_NE(a.findings[0].message.find("upward include"), std::string::npos);
  EXPECT_NE(a.findings[1].message.find("sideways include"), std::string::npos);
  EXPECT_NE(a.findings[2].message.find(
                "include cycle: src/mid/cycle_a.h -> src/mid/cycle_b.h -> "
                "src/mid/cycle_a.h"),
            std::string::npos);
  EXPECT_TRUE(a.notes.empty());
}

TEST(LintCrossTuTest, PoolContractGolden) {
  const auto a = lint::analyze_tree(SOFTRES_LINT_FIXTURE_DIR "/crosstu/pool",
                                    {"src"});
  EXPECT_TRUE(a.errors.empty());
  expect_triples(a.findings, {
                                 {"src/tier/cases.cc", 24, "SR012"},  // leak
                                 {"src/tier/cases.cc", 32, "SR012"},  // return
                                 {"src/tier/cases.cc", 39, "SR012"},  // raw
                             });
  ASSERT_EQ(a.findings.size(), 3u);
  EXPECT_NE(a.findings[0].message.find("leaks from the grant callback"),
            std::string::npos);
  EXPECT_NE(a.findings[1].message.find("early return"), std::string::npos);
  EXPECT_NE(a.findings[2].message.find("raw Pool::release"),
            std::string::npos);
}

TEST(LintCrossTuTest, SeriesXrefGolden) {
  const auto a = lint::analyze_tree(SOFTRES_LINT_FIXTURE_DIR "/crosstu/series",
                                    {"src"});
  EXPECT_TRUE(a.errors.empty());
  // The typo'd lookup and the label value looked up as a series are the
  // findings: only a registration's first literal names a series. The exact
  // lookup matches its registration and the runtime-prefixed probe matches
  // by suffix.
  expect_triples(a.findings, {{"src/obs/cases.cc", 26, "SR013"},
                              {"src/obs/cases.cc", 27, "SR013"}});
  ASSERT_EQ(a.findings.size(), 2u);
  EXPECT_NE(a.findings[0].message.find("cpu_util_pc"), std::string::npos);
  EXPECT_NE(a.findings[1].message.find("node0.cpu"), std::string::npos);
  // The never-read exact registration is a note, not a gate.
  expect_triples(a.notes, {{"src/obs/cases.cc", 23, "SR013"}});
  ASSERT_EQ(a.notes.size(), 1u);
  EXPECT_EQ(a.notes[0].severity, lint::Severity::kNote);
  EXPECT_NE(a.notes[0].message.find("orphan.series"), std::string::npos);
}

TEST(LintCrossTuTest, ExcludePrefixSkipsFiles) {
  lint::Options opt;
  opt.exclude_prefixes = {"src/tier"};
  const auto a = lint::analyze_tree(SOFTRES_LINT_FIXTURE_DIR "/crosstu/pool",
                                    {"src"}, opt);
  EXPECT_EQ(a.files_scanned, 0u);
  EXPECT_TRUE(a.findings.empty());
}

TEST(LintOutputTest, SarifRendering) {
  const auto a = lint::analyze_tree(SOFTRES_LINT_FIXTURE_DIR "/crosstu/pool",
                                    {"src"});
  const std::string sarif = lint::to_sarif(a);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"softres-lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"SR012\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uriBaseId\": \"SRCROOT\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 24"), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"warning\""), std::string::npos);
  // Every rule rides along as a reportingDescriptor.
  for (const auto& r : lint::rule_table()) {
    EXPECT_NE(sarif.find("\"id\": \"" + r.id + "\""), std::string::npos)
        << r.id;
  }
  // Notes render at note level (series fixture has one).
  const auto s = lint::analyze_tree(SOFTRES_LINT_FIXTURE_DIR "/crosstu/series",
                                    {"src"});
  EXPECT_NE(lint::to_sarif(s).find("\"level\": \"note\""), std::string::npos);
}

TEST(LintOutputTest, MarkdownRendering) {
  const auto a = lint::analyze_tree(SOFTRES_LINT_FIXTURE_DIR "/crosstu/series",
                                    {"src"});
  const std::string md = lint::to_markdown(a);
  EXPECT_NE(md.find("### softres-lint"), std::string::npos);
  EXPECT_NE(md.find("| `src/obs/cases.cc` | 26 | SR013 |"),
            std::string::npos);
  lint::Analysis clean;
  EXPECT_NE(lint::to_markdown(clean).find(":white_check_mark:"),
            std::string::npos);
}

TEST(LintOutputTest, DefaultScanSet) {
  EXPECT_EQ(lint::default_paths(),
            (std::vector<std::string>{"src", "bench", "examples", "tools",
                                      "tests"}));
  const auto& ex = lint::default_excludes();
  EXPECT_NE(std::find(ex.begin(), ex.end(), "tests/lint/fixtures"), ex.end());
}
