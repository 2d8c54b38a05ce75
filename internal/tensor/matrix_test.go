package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func randMatrix(rows, cols int, seed uint64) *Matrix {
	m := NewMatrix(rows, cols)
	t := NewTile4(rows, cols, 1, 1)
	t.FillRandom(seed, 1)
	copy(m.Data, t.Data)
	return m
}

// TestGemmRejectsOtherCallShapes pins Gemm to the one call shape the
// TCE makes, dgemm('T','N', 1, A, B, 1, C): every other transpose pair,
// alpha or beta panics before touching C — on square operands, where
// each of them would be a well-formed product — and the TN shape
// computes C += A^T*B.
func TestGemmRejectsOtherCallShapes(t *testing.T) {
	a, b, c0 := randMatrix(4, 4, 1), randMatrix(4, 4, 2), randMatrix(4, 4, 3)
	for _, s := range []struct {
		transA, transB bool
		alpha, beta    float64
	}{
		{false, false, 1, 1}, {false, true, 1, 1}, {true, true, 1, 1},
		{true, false, 1.5, 1}, {true, false, -1, 1}, {true, false, 0, 1}, {true, false, math.NaN(), 1},
		{true, false, 1, 0}, {true, false, 1, 0.5}, {true, false, 0, 2},
	} {
		checkRejected(t, s.transA, s.transB, s.alpha, a, b, s.beta, c0)
	}
	want := c0.Clone()
	gemmNaive(a, b, want)
	got := c0.Clone()
	Gemm(true, false, 1, a, b, 1, got)
	if d := got.MaxAbsDiff(want); d > 1e-14 {
		t.Errorf("Gemm('T','N'): max diff %g from the naive loop", d)
	}
}

// checkRejected runs Gemm on a copy of c0 and fails unless the call
// panics and leaves every bit of C as it was.
func checkRejected(t *testing.T, transA, transB bool, alpha float64, a, b *Matrix, beta float64, c0 *Matrix) {
	t.Helper()
	c := c0.Clone()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("Gemm(transA=%v, transB=%v, alpha=%g, beta=%g) did not panic", transA, transB, alpha, beta)
			}
		}()
		Gemm(transA, transB, alpha, a, b, beta, c)
	}()
	if i := sameBitsOrNaN(c.Data, c0.Data); i >= 0 {
		t.Errorf("Gemm(transA=%v, transB=%v, alpha=%g, beta=%g) changed C[%d]", transA, transB, alpha, beta, i)
	}
}

// TestGemmAllTransposeForms gives each of the four transpose pairs
// operands of the shapes that form multiplies (m, n, k all different), so
// a rejection cannot be a shape check: 'T','N' computes C += A^T*B, and
// 'N','N', 'N','T' and 'T','T' panic with C untouched.
func TestGemmAllTransposeForms(t *testing.T) {
	const m, n, k = 5, 7, 4
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			var a, b *Matrix
			if ta {
				a = randMatrix(k, m, 1)
			} else {
				a = randMatrix(m, k, 1)
			}
			if tb {
				b = randMatrix(n, k, 2)
			} else {
				b = randMatrix(k, n, 2)
			}
			c := randMatrix(m, n, 3)
			if !ta || tb {
				checkRejected(t, ta, tb, 1, a, b, 1, c)
				continue
			}
			want := c.Clone()
			gemmNaive(a, b, want)
			Gemm(ta, tb, 1, a, b, 1, c)
			if d := c.MaxAbsDiff(want); d > 1e-13 {
				t.Errorf("transA=%v transB=%v: max diff %g", ta, tb, d)
			}
		}
	}
}

// TestGemmBetaZeroOverwritesNaN: beta = 0, which BLAS reads as "overwrite
// C, NaNs included", is rejected and leaves the NaNs; the overwrite is
// spelled as a zeroed C plus the one call shape, which leaves no NaN and
// is exactly A^T*B.
func TestGemmBetaZeroOverwritesNaN(t *testing.T) {
	a := randMatrix(3, 3, 4)
	b := randMatrix(3, 3, 5)
	c := NewMatrix(3, 3)
	for i := range c.Data {
		c.Data[i] = math.NaN()
	}
	checkRejected(t, true, false, 1, a, b, 0, c)
	c = NewMatrix(3, 3)
	want := NewMatrix(3, 3)
	gemmNaive(a, b, want)
	Gemm(true, false, 1, a, b, 1, c)
	for i, v := range c.Data {
		if math.IsNaN(v) {
			t.Fatalf("zeroed C left NaN at %d", i)
		}
	}
	if d := c.MaxAbsDiff(want); d > 1e-14 {
		t.Errorf("zeroed C: max diff %g from A^T*B", d)
	}
}

// TestGemmAlphaZeroScalesOnly: alpha = 0 with beta = 2, BLAS's "scale C
// only", is rejected with C untouched; what alpha = 0 did to the product
// is now an all-zero A, whose every l the kernels skip, so C keeps every
// bit — its -0 entries included, which an added 0*b would turn to +0.
func TestGemmAlphaZeroScalesOnly(t *testing.T) {
	a := randMatrix(2, 2, 6)
	b := randMatrix(2, 2, 7)
	c0 := randMatrix(2, 2, 8)
	checkRejected(t, true, false, 0, a, b, 2, c0)
	for _, d := range [][3]int{{2, 2, 2}, {9, 4, 17}, {3, 8, 5}} {
		k, m, n := d[0], d[1], d[2]
		b := randMatrix(k, n, 9)
		c := randMatrix(m, n, 10)
		for i := 0; i < len(c.Data); i += 3 {
			c.Data[i] = math.Copysign(0, -1)
		}
		want := c.Clone()
		Gemm(true, false, 1, NewMatrix(k, m), b, 1, c)
		if i := sameBits(c.Data, want.Data); i >= 0 {
			t.Errorf("k=%d m=%d n=%d: zero A changed C[%d]", k, m, n, i)
		}
	}
}

func TestGemmShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Gemm(true, false, 1, NewMatrix(3, 2), NewMatrix(4, 2), 1, NewMatrix(2, 2))
}

func TestGemmEmptyDims(t *testing.T) {
	c := NewMatrix(0, 5)
	Gemm(true, false, 1, NewMatrix(3, 0), NewMatrix(3, 5), 1, c) // no panic
	c2 := randMatrix(2, 2, 1)
	want := c2.Clone()
	Gemm(true, false, 1, NewMatrix(0, 2), NewMatrix(0, 2), 1, c2)
	if i := sameBits(c2.Data, want.Data); i >= 0 {
		t.Errorf("k=0 GEMM changed C[%d]", i)
	}
}

func TestGemmFlops(t *testing.T) {
	if got := GemmFlops(10, 20, 30); got != 12000 {
		t.Errorf("GemmFlops = %d, want 12000", got)
	}
}

// Property: Gemm agrees with the naive reference on random shapes.
func TestPropertyGemmMatchesReference(t *testing.T) {
	f := func(mm, nn, kk uint8, seed uint64) bool {
		m, n, k := int(mm%8)+1, int(nn%8)+1, int(kk%8)+1
		a := randMatrix(k, m, seed)
		b := randMatrix(k, n, seed+1)
		c := randMatrix(m, n, seed+3)
		want := c.Clone()
		gemmNaive(a, b, want)
		Gemm(true, false, 1, a, b, 1, c)
		return c.MaxAbsDiff(want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: C += A^T*B is linear in A: doubling A doubles the product,
// bit for bit, since scaling by two is exact on every path.
func TestPropertyGemmLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		a := randMatrix(3, 4, seed)
		b := randMatrix(3, 5, seed+1)
		a2 := a.Clone()
		for i := range a2.Data {
			a2.Data[i] *= 2
		}
		c1 := NewMatrix(4, 5)
		c2 := NewMatrix(4, 5)
		Gemm(true, false, 1, a2, b, 1, c1)
		Gemm(true, false, 1, a, b, 1, c2)
		for i := range c2.Data {
			c2.Data[i] *= 2
		}
		return sameBits(c1.Data, c2.Data) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
