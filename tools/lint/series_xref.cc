// SR013 — registry/timeline series-name cross-reference. PR 5's dt=0 bug
// was a detector silently reading a series nobody produced; this pass makes
// that class of bug a lint failure. It collects, across every scanned file:
//
//   registrations  the series name passed to a registration site
//                  (Registry::counter/gauge/histogram/gauge_fn/counter_fn):
//                  the first literal of the first string-bearing argument
//                  only — later literals are labels and help text;
//   lookups        the first literal passed to a lookup site
//                  (Timeline::find_series and RunResult::find_series).
//
// Because some names are built as `prefix + "_suffix"` at runtime, every
// literal is classified exact (the argument is the lone literal) or
// fragment (the argument mixes identifiers/'+' with the literal). A lookup
// is satisfied when some registration literal is compatible with it:
// equal, or one is a prefix/suffix of the other when either side is a
// fragment. Lookups with no compatible registration are SR013 findings;
// exact registrations that no lookup ever touches are reported as notes
// (never-read series are usually dead probes, occasionally intentional
// exports — notes never gate the build).

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"
#include "lint.h"
#include "passes.h"

namespace softres::lint {

namespace {

bool punct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

const std::set<std::string>& registration_calls() {
  static const std::set<std::string> kCalls = {
      "counter", "gauge", "histogram", "gauge_fn", "counter_fn",
  };
  return kCalls;
}

const std::set<std::string>& lookup_calls() {
  static const std::set<std::string> kCalls = {"find_series"};
  return kCalls;
}

/// A plausible series name: non-empty, only [A-Za-z0-9_.], at least one
/// letter. Help strings and label values have spaces or punctuation and
/// fall out here.
bool series_charset(const std::string& s) {
  if (s.empty()) return false;
  bool has_alpha = false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.';
    if (!ok) return false;
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) has_alpha = true;
  }
  return has_alpha;
}

struct SeriesRef {
  std::string text;
  std::string file;
  int line = 0;
  bool fragment = false;  // argument concatenated the literal with idents
};

/// Scan one call's argument list starting at the '(' token (index `open`).
/// For each argument (split on top-level commas) report its string literals
/// and whether the argument mixes them with identifiers or '+'.
struct Arg {
  std::vector<const Token*> strings;
  bool mixed = false;
};
std::vector<Arg> split_args(const std::vector<Token>& toks, std::size_t open,
                            std::size_t* out_end) {
  std::vector<Arg> args;
  Arg cur;
  int depth = 1;
  std::size_t i = open + 1;
  // 600 tokens bounds pathological calls; real registration calls are
  // far smaller.
  const std::size_t limit = std::min(toks.size(), open + 600);
  for (; i < limit && depth > 0; ++i) {
    const Token& t = toks[i];
    if (t.kind == Token::Kind::kPunct) {
      if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
      else if (t.text == ")" || t.text == "]" || t.text == "}") {
        --depth;
        if (depth == 0) break;
      } else if (t.text == "," && depth == 1) {
        args.push_back(std::move(cur));
        cur = Arg{};
      } else if (t.text == "+") {
        cur.mixed = true;
      }
      continue;
    }
    if (t.kind == Token::Kind::kString) {
      cur.strings.push_back(&t);
    } else if (t.kind == Token::Kind::kIdent) {
      cur.mixed = true;
    }
  }
  args.push_back(std::move(cur));
  if (out_end != nullptr) *out_end = i;
  return args;
}

bool starts_with(const std::string& s, const std::string& p) {
  return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
}
bool ends_with(const std::string& s, const std::string& p) {
  return s.size() >= p.size() &&
         s.compare(s.size() - p.size(), p.size(), p) == 0;
}

/// Can registration R produce a name that lookup L resolves? Exact-exact
/// demands equality; once either side is a runtime concatenation, prefix/
/// suffix compatibility is the strongest claim a lexical checker can make.
bool compatible(const SeriesRef& lookup, const SeriesRef& reg) {
  if (lookup.text == reg.text) return true;
  if (!lookup.fragment && !reg.fragment) return false;
  return starts_with(lookup.text, reg.text) ||
         ends_with(lookup.text, reg.text) ||
         starts_with(reg.text, lookup.text) ||
         ends_with(reg.text, lookup.text);
}

}  // namespace

void check_series_xref(const std::vector<SourceFile>& files,
                       std::vector<Finding>* findings,
                       std::vector<Finding>* notes) {
  std::vector<SeriesRef> registrations;
  std::vector<SeriesRef> lookups;

  for (const SourceFile& sf : files) {
    const std::vector<Token>& toks = sf.lex.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != Token::Kind::kIdent || !punct(toks[i + 1], "(")) continue;
      const bool is_member =
          i >= 1 && (punct(toks[i - 1], ".") || punct(toks[i - 1], "->"));

      if (registration_calls().count(t.text) > 0) {
        // The first string-bearing argument names the series; literals in
        // later arguments are label keys/values and help text.
        for (const Arg& arg : split_args(toks, i + 1, nullptr)) {
          if (arg.strings.empty()) continue;
          const Token* s = arg.strings.front();
          if (series_charset(s->text)) {
            registrations.push_back(
                {s->text, sf.rel_path, s->line, arg.mixed});
          }
          break;
        }
        continue;
      }

      if (is_member && lookup_calls().count(t.text) > 0) {
        const std::vector<Arg> args = split_args(toks, i + 1, nullptr);
        if (args.empty() || args.front().strings.empty()) continue;
        const Arg& first = args.front();
        const Token* s = first.strings.front();
        if (!series_charset(s->text)) continue;
        lookups.push_back({s->text, sf.rel_path, s->line, first.mixed});
      }
    }
  }

  // Lookups nobody can satisfy -> findings.
  for (const SeriesRef& lk : lookups) {
    bool ok = false;
    for (const SeriesRef& reg : registrations) {
      if (compatible(lk, reg)) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      Finding f;
      f.file = lk.file;
      f.line = lk.line;
      f.rule = "SR013";
      f.message =
          "lookup of series '" + lk.text +
          "' which no registration site can produce — a dead detector "
          "subscription; register the series or fix the name";
      findings->push_back(std::move(f));
    }
  }

  // Exact registrations nobody reads -> notes. Fragment registrations are
  // skipped: a runtime-prefixed family is usually consumed wholesale by
  // the exporters.
  std::set<std::string> noted;
  for (const SeriesRef& reg : registrations) {
    if (reg.fragment) continue;
    bool read = false;
    for (const SeriesRef& lk : lookups) {
      if (compatible(lk, reg)) {
        read = true;
        break;
      }
    }
    if (!read && noted.insert(reg.file + ":" + reg.text).second) {
      Finding f;
      f.file = reg.file;
      f.line = reg.line;
      f.rule = "SR013";
      f.message = "series '" + reg.text +
                  "' is registered but never looked up by name (exporters "
                  "that walk all families still see it)";
      f.severity = Severity::kNote;
      notes->push_back(std::move(f));
    }
  }
}

}  // namespace softres::lint
