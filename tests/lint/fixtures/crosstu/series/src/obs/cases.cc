// SR013 fixture: two unsatisfiable lookups (a typo, and a label value looked
// up as if it were a series name), one orphan registration; the exact and
// fragment-compatible lookups must stay silent.

namespace fix {

struct Str {
  Str(const char* s);
};
Str operator+(const Str& a, const char* b);

struct Registry {
  void counter(const Str& name);
  void gauge_fn(const Str& name, int fn, const Str& label, const Str& help);
};
struct Timeline {
  void find_series(const Str& family);
};

void wire(Registry& reg, Timeline& tl, const Str& prefix) {
  reg.gauge_fn("cpu_util_pct", 0, "node0.cpu", "CPU percent");
  reg.gauge_fn(prefix + "_processed", 1, "node0", "Completions");
  reg.counter("orphan.series");
  tl.find_series("cpu_util_pct");
  tl.find_series("node0_processed");
  tl.find_series("cpu_util_pc");
  tl.find_series("node0.cpu");
}

}  // namespace fix
