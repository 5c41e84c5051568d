// Fixture: SR010 — direct Pool::set_capacity outside the sanctioned resize
// paths (src/soft, src/core/governor*). Live resizes must
// flow through a registered soft::ResizablePoolSet controller so drain
// accounting, capacity epochs and the JVM-sync hooks stay coherent.
// Expected findings: SR010 at the two marked lines. The comment mention, the
// near-miss identifier, and the allowed line produce nothing.
struct Pool;

namespace softres_fixture {

void resize_directly(Pool* pool) {
  pool->set_capacity(64);  // SR010 expected here (line 12)
}

void resize_inline(Pool& pool) { pool.set_capacity(8); }  // SR010 expected

// set_capacity mentioned in a comment does not fire, and identifiers that
// merely contain the substring (set_capacity_marker) are not the bare token.
int set_capacity_marker = 0;

// SOFTRES_LINT_ALLOW(SR010: fixture demonstrates the escape hatch)
void allowed(Pool* pool) { pool->set_capacity(2); }

}  // namespace softres_fixture
