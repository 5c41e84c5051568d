#include "lint.h"

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lexer.h"
#include "passes.h"

namespace softres::lint {

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> kRules = {
      {"SR001", "banned-rng",
       "std:: random machinery (rand, random_device, mt19937, ...) in "
       "sim-reachable code; draw from sim::Rng streams instead"},
      {"SR002", "wall-clock",
       "wall-clock APIs (system_clock, steady_clock, gettimeofday, ...) in "
       "src/ outside src/obs; simulation time is sim::SimTime"},
      {"SR003", "unordered-iteration",
       "iteration over std::unordered_{map,set}: hash-order-dependent and "
       "must never feed a result or report"},
      {"SR004", "rng-construction",
       "sim::Rng constructed outside src/sim; seed every stream through "
       "RunContext::derive_seed (or annotate why the seed is already "
       "derived)"},
      {"SR005", "threading-in-sim",
       "mutex/atomic/thread primitives in src/sim or src/core, which are "
       "single-threaded per trial by contract"},
      {"SR006", "address-dependent",
       "thread-id or pointer-to-integer hashing: differs across runs and "
       "address-space layouts"},
      {"SR007", "std-function-hot-path",
       "std::function in src/sim or src/tier: per-event callbacks heap-"
       "allocate their captures; use sim::InlineCallback (or annotate a "
       "cold path with SOFTRES_LINT_ALLOW)"},
      {"SR008", "stream-writes-in-detector",
       "stream writes in src/obs diagnoser/timeline code: detectors produce "
       "data (Diagnosis, EvidenceWindow); every human-facing rendering goes "
       "through obs/report.h"},
      {"SR009", "cycle-counter",
       "cycle-counter intrinsics (rdtsc and friends) in sim code and "
       "drivers, or std::chrono stopwatches in drivers; machine timing "
       "belongs to the bench_suite ladder, perfbench or src/obs"},
      {"SR010", "direct-pool-resize",
       "Pool::set_capacity called outside src/soft and the Governor "
       "(src/core/governor*); live resizes flow through a registered "
       "soft::ResizablePoolSet controller so drain accounting, capacity "
       "epochs and resize hooks stay coherent"},
      {"SR011", "layer-violation",
       "#include edge that points up or sideways in the layer DAG "
       "(tools/lint/layers.txt), or an include cycle between files; the "
       "layering keeps simulation-reachable code independent of the "
       "observation and driver layers above it"},
      {"SR012", "pool-unit-leak",
       "Pool::acquire grant that escapes its callback without being adopted "
       "into a soft::PoolGuard or released, an early return/throw while "
       "holding a unit, or a raw Pool::release with no acquire in lexical "
       "scope; unit accounting backs every pathology signal, so ownership "
       "must be explicit"},
      {"SR013", "unknown-series",
       "registry/timeline lookup of a series name that no registration site "
       "can produce — the silent-dead-detector class; never-read "
       "registrations are reported as notes"},
      {"SR014", "sarif-output",
       "meta-rule: findings export as SARIF 2.1.0 (--sarif out.sarif) so the "
       "static-analysis CI job can annotate PR diffs; never fires on source"},
      {"SR015", "adhoc-quantile",
       "selection-algorithm calls (nth_element, partial_sort, ...) outside "
       "src/sim, src/metrics and src/obs; percentile and cohort math flows "
       "through sim::SampleSet so every reported quantile uses one "
       "definition (nearest rank)"},
  };
  return kRules;
}

Domain classify_path(const std::string& rel_path) {
  auto has_prefix = [&rel_path](const char* p) {
    return rel_path.rfind(p, 0) == 0;
  };
  if (has_prefix("src/obs/")) return Domain::kObs;
  // src/support holds the contract enforcement itself (poison pragmas and
  // [[deprecated]] shims name the banned identifiers on purpose).
  if (has_prefix("src/support/")) return Domain::kExempt;
  if (has_prefix("src/")) return Domain::kSim;
  if (has_prefix("bench/") || has_prefix("examples/")) return Domain::kDriver;
  if (has_prefix("tools/")) return Domain::kTool;
  if (has_prefix("tests/")) return Domain::kTest;
  return Domain::kExempt;
}

namespace {

struct TokenRule {
  const char* rule;
  const char* token;
  const char* what;
};

// SR001 — entropy sources other than sim::Rng. Fires in every scanned
// domain: a bench that seeds mt19937 breaks reproducibility exactly like a
// tier model would.
constexpr TokenRule kBannedRng[] = {
    {"SR001", "rand", "std::rand"},
    {"SR001", "srand", "srand"},
    {"SR001", "random_device", "std::random_device"},
    {"SR001", "mt19937", "std::mt19937"},
    {"SR001", "mt19937_64", "std::mt19937_64"},
    {"SR001", "minstd_rand", "std::minstd_rand"},
    {"SR001", "minstd_rand0", "std::minstd_rand0"},
    {"SR001", "default_random_engine", "std::default_random_engine"},
    {"SR001", "ranlux24", "std::ranlux24"},
    {"SR001", "ranlux48", "std::ranlux48"},
    {"SR001", "knuth_b", "std::knuth_b"},
};

// SR002 — wall clocks in src/ outside src/obs. Simulation time is
// sim::SimTime; real time in a trial makes jobs=N diverge from jobs=1.
constexpr TokenRule kWallClock[] = {
    {"SR002", "system_clock", "std::chrono::system_clock"},
    {"SR002", "steady_clock", "std::chrono::steady_clock"},
    {"SR002", "high_resolution_clock", "std::chrono::high_resolution_clock"},
    {"SR002", "gettimeofday", "gettimeofday"},
    {"SR002", "clock_gettime", "clock_gettime"},
    {"SR002", "timespec_get", "timespec_get"},
    {"SR002", "localtime", "localtime"},
    {"SR002", "gmtime", "gmtime"},
    {"SR002", "strftime", "strftime"},
};

// SR005 — concurrency primitives in the single-threaded-per-trial domains.
// Parallelism lives in exp::ParallelExecutor, above the trial boundary.
constexpr TokenRule kThreading[] = {
    {"SR005", "mutex", "std::mutex"},
    {"SR005", "shared_mutex", "std::shared_mutex"},
    {"SR005", "atomic", "std::atomic"},
    {"SR005", "thread", "std::thread"},
    {"SR005", "jthread", "std::jthread"},
    {"SR005", "condition_variable", "std::condition_variable"},
    {"SR005", "lock_guard", "std::lock_guard"},
    {"SR005", "unique_lock", "std::unique_lock"},
    {"SR005", "scoped_lock", "std::scoped_lock"},
    {"SR005", "future", "std::future"},
    {"SR005", "promise", "std::promise"},
    {"SR005", "async", "std::async"},
    {"SR005", "counting_semaphore", "std::counting_semaphore"},
    {"SR005", "binary_semaphore", "std::binary_semaphore"},
    {"SR005", "latch", "std::latch"},
    {"SR005", "barrier", "std::barrier"},
};

// SR006 — values that depend on the address space or the scheduler.
constexpr TokenRule kAddressDependent[] = {
    {"SR006", "this_thread", "std::this_thread"},
    {"SR006", "get_id", "thread-id query"},
};

// SR008 — stream machinery in the diagnoser/timeline files of src/obs.
// Detectors emit structured Diagnosis/EvidenceWindow data; rendering is
// obs/report.h's job. Banning the tokens (not just the writes) keeps even a
// "temporary" debug print out of the rule engine.
constexpr TokenRule kStreamWrites[] = {
    {"SR008", "ostream", "std::ostream"},
    {"SR008", "ofstream", "std::ofstream"},
    {"SR008", "fstream", "std::fstream"},
    {"SR008", "ostringstream", "std::ostringstream"},
    {"SR008", "stringstream", "std::stringstream"},
    {"SR008", "cout", "std::cout"},
    {"SR008", "cerr", "std::cerr"},
    {"SR008", "clog", "std::clog"},
    {"SR008", "printf", "printf"},
    {"SR008", "fprintf", "fprintf"},
    {"SR008", "puts", "puts"},
};

// SR009 — cycle counters and chrono timing in sim code and drivers. Machine
// timing belongs to the bench_suite ladder (google-benchmark), perfbench's
// per-layer metrics or src/obs; a stray rdtsc in a tier model or a bench is
// an un-calibrated measurement that no gate or report can see. src/support
// and src/obs are exempt by domain, exactly like the SR002 clock carve-out.
// The cycle-counter tokens fire in kSim and kDriver; the chrono token fires
// in kDriver only, because SR002 already owns wall-clock timing inside src/
// and double-reporting the same line under two rules would just be noise.
constexpr TokenRule kCycleCounter[] = {
    {"SR009", "rdtsc", "rdtsc"},
    {"SR009", "__rdtsc", "__rdtsc"},
    {"SR009", "__rdtscp", "__rdtscp"},
    {"SR009", "__builtin_ia32_rdtsc", "__builtin_ia32_rdtsc"},
    {"SR009", "__builtin_ia32_rdtscp", "__builtin_ia32_rdtscp"},
    {"SR009", "__builtin_readcyclecounter", "__builtin_readcyclecounter"},
    {"SR009", "cntvct_el0", "cntvct_el0 (aarch64 counter)"},
};
constexpr TokenRule kDriverTiming[] = {
    {"SR009", "chrono", "std::chrono timing"},
};

// SR015 — ad-hoc order-statistic selection outside the sanctioned stats
// homes. Every percentile the repo reports — SLA quantiles, tail-cohort
// boundaries, exemplar ranking — comes from sim::SampleSet's exact
// nearest-rank definition via src/metrics and src/obs; a stray nth_element
// in a tier model or a driver quietly invents a second, subtly different
// quantile definition that can disagree with the reports. Both partial_sort
// tokens are listed because word-boundary matching (correctly) keeps
// "partial_sort" from firing inside "partial_sort_copy".
constexpr TokenRule kQuantileSelection[] = {
    {"SR015", "nth_element", "std::nth_element"},
    {"SR015", "partial_sort", "std::partial_sort"},
    {"SR015", "partial_sort_copy", "std::partial_sort_copy"},
};

// SR008 stream headers; SR001 bans <random> the same way.
constexpr const char* kStreamHeaders[] = {"iostream",  "ostream", "sstream",
                                          "fstream",   "iomanip", "print"};

bool under(const std::string& rel_path, const char* prefix) {
  return rel_path.rfind(prefix, 0) == 0;
}

/// SR008 scope: the streaming-analysis files of src/obs (basename starting
/// "diagnoser" or "timeline"). Other obs code — report.h, the exporters —
/// is *supposed* to write streams.
bool is_detector_file(const std::string& rel_path) {
  if (!under(rel_path, "src/obs/")) return false;
  const std::size_t slash = rel_path.rfind('/');
  const std::string base = rel_path.substr(slash + 1);
  return base.rfind("diagnoser", 0) == 0 || base.rfind("timeline", 0) == 0;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

bool is_unordered_name(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

/// Token-structural matchers that replaced the per-line regexes of lint v1.
/// Each works on the flat token stream of one file; the lexer guarantees
/// "::" and "->" are single tokens, so lookbehind is one index, not a
/// character-class dance.
class TokenScanner {
 public:
  explicit TokenScanner(const std::vector<Token>& toks) : toks_(toks) {}

  std::size_t size() const { return toks_.size(); }
  const Token& at(std::size_t i) const { return toks_[i]; }

  /// Names of variables declared with an unordered container type anywhere
  /// in the file: `unordered_map<...> name {;={(}`. The template argument
  /// list is matched by angle-bracket balance; a ';' or '{' inside it means
  /// we mis-parsed a comparison, so bail on that candidate.
  std::set<std::string> unordered_vars() const {
    std::set<std::string> out;
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (toks_[i].kind != Token::Kind::kIdent ||
          !is_unordered_name(toks_[i].text) || !is_punct(toks_[i + 1], "<"))
        continue;
      int depth = 1;
      std::size_t j = i + 2;
      for (; j < toks_.size() && depth > 0; ++j) {
        if (is_punct(toks_[j], "<")) ++depth;
        else if (is_punct(toks_[j], ">")) --depth;
        else if (is_punct(toks_[j], ";") || is_punct(toks_[j], "{")) break;
      }
      if (depth != 0 || j + 1 >= toks_.size()) continue;
      const Token& name = toks_[j];
      const Token& after = toks_[j + 1];
      if (name.kind == Token::Kind::kIdent &&
          (is_punct(after, ";") || is_punct(after, "=") ||
           is_punct(after, "{") || is_punct(after, "("))) {
        out.insert(name.text);
      }
    }
    return out;
  }

  /// `for (... : var)` — range-for over `var`. Returns the line or 0.
  int range_for_over(const std::set<std::string>& vars, std::size_t i) const {
    if (!is_ident(toks_[i], "for") || i + 1 >= toks_.size() ||
        !is_punct(toks_[i + 1], "("))
      return 0;
    for (std::size_t j = i + 2; j < toks_.size(); ++j) {
      if (is_punct(toks_[j], ";") || is_punct(toks_[j], ")")) return 0;
      if (is_punct(toks_[j], ":") && j + 1 < toks_.size() &&
          toks_[j + 1].kind == Token::Kind::kIdent &&
          vars.count(toks_[j + 1].text) > 0) {
        return toks_[j + 1].line;
      }
    }
    return 0;
  }

  /// `var.begin(` / `var.cbegin(` on an unordered variable.
  bool begin_call_on(const std::set<std::string>& vars, std::size_t i,
                     std::string* var) const {
    if (toks_[i].kind != Token::Kind::kIdent || vars.count(toks_[i].text) == 0)
      return false;
    if (i + 3 >= toks_.size() || !is_punct(toks_[i + 1], ".")) return false;
    const Token& m = toks_[i + 2];
    if (!(is_ident(m, "begin") || is_ident(m, "cbegin"))) return false;
    if (!is_punct(toks_[i + 3], "(")) return false;
    *var = toks_[i].text;
    return true;
  }

  /// `Rng(...)` or `Rng name(...)` / `Rng name{...}` — a construction, not a
  /// reference parameter (`Rng& rng`) or a bare declaration (`Rng* p;`).
  bool rng_construction(std::size_t i) const {
    if (!is_ident(toks_[i], "Rng")) return false;
    if (i + 1 < toks_.size() && is_punct(toks_[i + 1], "(")) return true;
    if (i + 2 < toks_.size() && toks_[i + 1].kind == Token::Kind::kIdent &&
        (is_punct(toks_[i + 2], "(") || is_punct(toks_[i + 2], "{")))
      return true;
    return false;
  }

  /// `time(` / `clock(` as a free or std:: call — not a member (`x.time(`,
  /// `p->time(`) and not another namespace's (`ns::time(`).
  bool clock_call(std::size_t i, const char* name) const {
    if (!is_ident(toks_[i], name) || i + 1 >= toks_.size() ||
        !is_punct(toks_[i + 1], "("))
      return false;
    if (i == 0) return true;
    const Token& prev = toks_[i - 1];
    if (is_punct(prev, ".") || is_punct(prev, "->")) return false;
    if (is_punct(prev, "::"))
      return i >= 2 && is_ident(toks_[i - 2], "std");
    return true;
  }

  /// `reinterpret_cast<[std::]Xintptr_t` or `std::hash<...*...>`.
  bool ptr_hash(std::size_t i) const {
    if (is_ident(toks_[i], "reinterpret_cast") && i + 2 < toks_.size() &&
        is_punct(toks_[i + 1], "<")) {
      std::size_t j = i + 2;
      if (j + 1 < toks_.size() && is_ident(toks_[j], "std") &&
          is_punct(toks_[j + 1], "::"))
        j += 2;
      if (j < toks_.size() && (is_ident(toks_[j], "intptr_t") ||
                               is_ident(toks_[j], "uintptr_t")))
        return true;
    }
    if (is_ident(toks_[i], "std") && i + 3 < toks_.size() &&
        is_punct(toks_[i + 1], "::") && is_ident(toks_[i + 2], "hash") &&
        is_punct(toks_[i + 3], "<")) {
      for (std::size_t j = i + 4; j < toks_.size(); ++j) {
        if (is_punct(toks_[j], ">") || is_punct(toks_[j], ";")) break;
        if (is_punct(toks_[j], "*")) return true;
      }
    }
    return false;
  }

  /// `std::function<`.
  bool std_function(std::size_t i) const {
    return is_ident(toks_[i], "std") && i + 3 < toks_.size() &&
           is_punct(toks_[i + 1], "::") && is_ident(toks_[i + 2], "function") &&
           is_punct(toks_[i + 3], "<");
  }

 private:
  const std::vector<Token>& toks_;
};

}  // namespace

bool path_under(const std::string& rel_path, const std::string& prefix) {
  if (rel_path.rfind(prefix, 0) != 0) return false;
  if (rel_path.size() == prefix.size()) return true;
  return prefix.empty() || prefix.back() == '/' ||
         rel_path[prefix.size()] == '/';
}

std::vector<Finding> scan_lexed_file(const std::string& rel_path,
                                     const FileLex& lex) {
  const Domain domain = classify_path(rel_path);
  std::vector<Finding> findings;
  if (domain == Domain::kExempt) return findings;

  const bool in_sim_core =
      under(rel_path, "src/sim/") || under(rel_path, "src/core/");
  const bool in_detector = is_detector_file(rel_path);
  const bool in_hot_path =
      under(rel_path, "src/sim/") || under(rel_path, "src/tier/");
  const bool rng_ctor_exempt = under(rel_path, "src/sim/") ||
                               rel_path == "src/exp/run_context.cc" ||
                               rel_path == "src/exp/run_context.h" ||
                               domain == Domain::kTool ||
                               domain == Domain::kTest;
  const bool resize_sanctioned = under(rel_path, "src/soft/") ||
                                 under(rel_path, "src/core/governor") ||
                                 domain == Domain::kTool ||
                                 domain == Domain::kTest;
  const bool quantile_sanctioned = under(rel_path, "src/sim/") ||
                                   under(rel_path, "src/metrics/") ||
                                   domain == Domain::kObs ||
                                   domain == Domain::kTool ||
                                   domain == Domain::kTest;

  auto is_allowed = [&lex](int line, const char* rule) {
    auto it = lex.allowed.find(line);
    return it != lex.allowed.end() && it->second.count(rule) > 0;
  };
  auto add = [&](int line, const char* rule, std::string message) {
    if (is_allowed(line, rule)) return;
    Finding f;
    f.file = rel_path;
    f.line = line;
    f.rule = rule;
    f.message = std::move(message);
    if (line >= 1 && static_cast<std::size_t>(line) <= lex.raw_lines.size())
      f.excerpt = trim(lex.raw_lines[static_cast<std::size_t>(line) - 1]);
    findings.push_back(std::move(f));
  };

  // ---- include-directive rules ----
  for (const IncludeDirective& inc : lex.includes) {
    if (!inc.angled) continue;
    if (inc.target == "random") {
      add(inc.line, "SR001",
          "<random> must not be included in sim-reachable code; sim::Rng "
          "provides every needed distribution");
    }
    if (in_detector) {
      for (const char* hdr : kStreamHeaders) {
        if (inc.target == hdr) {
          add(inc.line, "SR008",
              "stream header included in detector code: rendering belongs in "
              "obs/report.h (snprintf into buffers is fine for labels)");
          break;
        }
      }
    }
  }

  // ---- line-oriented token-list rules (word-boundary search over the
  // comment- and literal-stripped code lines) ----
  for (std::size_t i = 0; i < lex.code_lines.size(); ++i) {
    const std::string& code = lex.code_lines[i];
    if (code.empty()) continue;
    const int n = static_cast<int>(i) + 1;

    // SR001 — all scanned domains.
    for (const auto& r : kBannedRng) {
      if (contains_token(code, r.token)) {
        add(n, r.rule, std::string(r.what) +
                           " is banned: draw from a sim::Rng stream derived "
                           "via RunContext::derive_seed");
        break;
      }
    }

    // SR002 — src/ outside src/obs.
    if (domain == Domain::kSim) {
      for (const auto& r : kWallClock) {
        if (contains_token(code, r.token)) {
          add(n, r.rule,
              std::string(r.what) +
                  " reads the wall clock: use sim::SimTime (simulated "
                  "seconds) or move the export to src/obs");
          break;
        }
      }
    }

    // SR005 — src/sim and src/core only.
    if (in_sim_core) {
      for (const auto& r : kThreading) {
        if (contains_token(code, r.token)) {
          add(n, r.rule,
              std::string(r.what) +
                  " in a single-threaded-per-trial domain: concurrency "
                  "belongs in exp::ParallelExecutor, above the trial");
          break;
        }
      }
    }

    // SR008 — the src/obs diagnoser/timeline files. Detector output is
    // structured data; rendering goes through obs/report.h.
    if (in_detector) {
      for (const auto& r : kStreamWrites) {
        if (contains_token(code, r.token)) {
          add(n, r.rule,
              std::string(r.what) +
                  " in detector code: return structured Diagnosis data and "
                  "render it through obs/report.h");
          break;
        }
      }
    }

    // SR009 — cycle counters / chrono timing in sim code and drivers;
    // src/support and src/obs are exempt by domain.
    if (domain == Domain::kSim || domain == Domain::kDriver) {
      bool hit = false;
      for (const auto& r : kCycleCounter) {
        if (contains_token(code, r.token)) {
          add(n, r.rule,
              std::string(r.what) +
                  " in sim code or a driver: machine timing belongs to the "
                  "bench_suite ladder, perfbench or src/obs");
          hit = true;
          break;
        }
      }
      if (!hit && domain == Domain::kDriver) {
        for (const auto& r : kDriverTiming) {
          if (contains_token(code, r.token)) {
            add(n, r.rule,
                std::string(r.what) +
                    " in a driver: time the sim through a bench_suite rung "
                    "or perfbench, not ad-hoc std::chrono stopwatches");
            break;
          }
        }
      }
    }

    // SR010 — direct pool resizes outside the sanctioned controller. A
    // live resize must flow through soft::ResizablePoolSet (the Governor)
    // so drain accounting, capacity epochs and the JVM-sync hooks stay
    // coherent; src/soft owns the mechanism itself.
    if (!resize_sanctioned && contains_token(code, "set_capacity")) {
      add(n, "SR010",
          "direct Pool::set_capacity outside src/soft and src/core/governor*: "
          "route resizes through a registered soft::ResizablePoolSet "
          "controller so drain accounting and resize hooks stay coherent");
    }

    // SR015 — ad-hoc quantile selection outside the stats homes. The
    // SampleSet implementation (src/sim), the metrics layer and src/obs own
    // order statistics; everything else reads quantiles through them.
    if (!quantile_sanctioned) {
      for (const auto& r : kQuantileSelection) {
        if (contains_token(code, r.token)) {
          add(n, r.rule,
              std::string(r.what) +
                  " computes order statistics ad hoc: percentile and cohort "
                  "math flows through sim::SampleSet (via src/metrics and "
                  "src/obs) so every reported quantile uses one definition");
          break;
        }
      }
    }

    // SR006 (token half) — sim-reachable src/ domains.
    if (domain == Domain::kSim || domain == Domain::kObs) {
      for (const auto& r : kAddressDependent) {
        if (contains_token(code, r.token)) {
          add(n, r.rule,
              std::string(r.what) +
                  " is scheduler-dependent and must not reach a result");
          break;
        }
      }
    }
  }

  // ---- token-structural rules (the old regexes, now exact) ----
  const TokenScanner ts(lex.tokens);
  const std::set<std::string> unordered = ts.unordered_vars();
  std::set<int> sr003_lines;  // one finding per line, like v1

  for (std::size_t i = 0; i < ts.size(); ++i) {
    const int n = ts.at(i).line;

    // SR003 — iteration over unordered containers declared in this file.
    if (!unordered.empty()) {
      std::string var;
      int hit_line = ts.range_for_over(unordered, i);
      if (hit_line == 0 && ts.begin_call_on(unordered, i, &var))
        hit_line = n;
      else if (hit_line != 0) {
        // recover the variable name for the message
        var.clear();
        for (const auto& v : unordered) {
          if (ts.range_for_over({v}, i) != 0) {
            var = v;
            break;
          }
        }
      }
      if (hit_line != 0 && sr003_lines.insert(hit_line).second) {
        add(hit_line, "SR003",
            "iteration over unordered container '" + var +
                "' is hash-order-dependent: sort keys first or use an "
                "ordered/indexed container");
      }
    }

    // SR004 — sim::Rng construction outside the sanctioned sites.
    if (!rng_ctor_exempt && ts.rng_construction(i)) {
      add(n, "SR004",
          "sim::Rng constructed here: every stream must be seeded through "
          "RunContext::derive_seed (annotate with SOFTRES_LINT_ALLOW(SR004: "
          "...) if this seed is already derived)");
    }

    // SR002 (call half) — src/ outside src/obs.
    if (domain == Domain::kSim) {
      if (ts.clock_call(i, "time")) {
        add(n, "SR002",
            "time() reads the wall clock: use sim::SimTime or move the "
            "export to src/obs");
      } else if (ts.clock_call(i, "clock")) {
        add(n, "SR002",
            "clock() reads the process clock: use sim::SimTime or move the "
            "export to src/obs");
      }
    }

    // SR006 (cast half) — sim-reachable src/ domains.
    if ((domain == Domain::kSim || domain == Domain::kObs) && ts.ptr_hash(i)) {
      add(n, "SR006",
          "pointer-to-integer hashing is address-space-dependent: key on "
          "a stable name or index instead");
    }

    // SR007 — src/sim and src/tier, the per-event hot paths. A
    // std::function here heap-allocates every capture over ~16 bytes and
    // costs an indirect call per dispatch; sim::InlineCallback holds 24
    // bytes inline. Cold paths (setup, teardown, reporting) may opt out
    // with SOFTRES_LINT_ALLOW(SR007: ...).
    if (in_hot_path && ts.std_function(i)) {
      add(n, "SR007",
          "std::function in a per-event hot path: use sim::InlineCallback "
          "(sim/inline_callback.h), or annotate a cold path with "
          "SOFTRES_LINT_ALLOW(SR007: why)");
    }
  }
  return findings;
}

std::vector<Finding> scan_file(const std::string& rel_path,
                               const std::string& contents) {
  if (classify_path(rel_path) == Domain::kExempt) return {};
  return scan_lexed_file(rel_path, lex_file(contents));
}

std::string format_finding(const Finding& f) {
  std::ostringstream os;
  os << f.file << ":" << f.line << ": ["
     << (f.severity == Severity::kNote ? "note " : "") << f.rule << "] "
     << f.message;
  if (!f.excerpt.empty()) os << "\n    > " << f.excerpt;
  return os.str();
}

}  // namespace softres::lint
