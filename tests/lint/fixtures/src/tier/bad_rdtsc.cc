// Fixture: SR009 — cycle-counter intrinsics in sim-reachable code. Machine
// timing belongs to the bench_suite ladder, perfbench or src/obs; a tier
// model must never read the TSC directly, because an un-calibrated stamp is
// a measurement that no gate or report can see.
// Expected findings: SR009 at the three marked lines. The comment mention,
// the near-miss identifier, and the allowed line produce nothing.
namespace softres_fixture {

unsigned long long stamp() {
  return __builtin_ia32_rdtsc();  // SR009 expected here (line 10)
}

unsigned long long stamp2() { return __rdtsc(); }  // SR009 expected here

// rdtsc mentioned in a comment does not fire, and identifiers that merely
// contain the substring (rdtsc_calibration_note) are not the bare token.
int rdtsc_calibration_note = 0;

unsigned long long portable() {
  return __builtin_readcyclecounter();  // SR009 expected here (line 20)
}

// SOFTRES_LINT_ALLOW(SR009: fixture demonstrates the escape hatch)
unsigned long long allowed() { return __rdtscp(); }

}  // namespace softres_fixture
