package tensor

import (
	"math/rand"
	"testing"
)

// TestGemmBlockedPortableFallback forces the pure-Go 4x4 micro-kernel on
// machines where an assembly tier would normally run, so the fallback
// taken on non-AVX2 hardware keeps correctness coverage.
func TestGemmBlockedPortableFallback(t *testing.T) {
	if ActiveKernelTier() == TierPortable {
		t.Skip("portable tier already active: the fallback is already under test")
	}
	defer setKernelTier(TierPortable)()

	rng := rand.New(rand.NewSource(42))
	for _, s := range [][3]int{{40, 40, 40}, {121, 121, 121}, {130, 37, 257}} {
		m, n, k := s[0], s[1], s[2]
		a := randMat(rng, k, m)
		b := randMat(rng, k, n)
		c := randMat(rng, m, n)
		want := c.Clone()
		gemmNaive(a, b, want)
		gemmBlockedCols(a, b, c, 0, n, nil)
		if d := c.MaxAbsDiff(want); d > 1e-13*float64(k) {
			t.Errorf("m=%d n=%d k=%d: max diff %g", m, n, k, d)
		}
	}
}
