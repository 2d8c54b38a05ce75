package tensor

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"

	"parsec/internal/tensor/pool"
)

// gemmNaive is an independent reference for C += A^T*B: the textbook
// triple loop with explicit index arithmetic, sharing no code with
// either the direct or the blocked kernels.
func gemmNaive(a, b, c *Matrix) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			var sum float64
			for p := 0; p < a.Rows; p++ {
				sum += a.At(p, i) * b.At(p, j)
			}
			c.Set(i, j, sum+c.At(i, j))
		}
	}
}

func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

// TestGemmBlockedProperty checks Gemm against the naive reference on
// random shapes straddling the blocking cutoff, to ~1e-13 relative to k.
func TestGemmBlockedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 2}, {9, 9, 9}, // direct path
		{33, 33, 33}, {40, 25, 70}, // just past the cutoff
		{121, 121, 121}, // the benzene tile
		{130, 131, 129}, // every edge-strip case at once
		{257, 65, 300},  // k spanning two KC panels
		{41, 600, 37},   // n edge with wide panel
	}
	for it := 0; it < 40; it++ {
		shapes = append(shapes, [3]int{rng.Intn(160) + 1, rng.Intn(160) + 1, rng.Intn(160) + 1})
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		a := randMat(rng, k, m)
		b := randMat(rng, k, n)
		c := randMat(rng, m, n)
		want := c.Clone()
		gemmNaive(a, b, want)
		Gemm(true, false, 1, a, b, 1, c)
		tol := 1e-13 * float64(k)
		if d := c.MaxAbsDiff(want); d > tol {
			t.Fatalf("Gemm m=%d n=%d k=%d: max diff %g > %g", m, n, k, d, tol)
		}
	}
}

// TestGemmBlockedMatchesDirect pins the blocked and direct kernels
// against each other on identical inputs at a size both handle.
func TestGemmBlockedMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const m, n, k = 96, 80, 112
	a := randMat(rng, k, m)
	b := randMat(rng, k, n)
	c1 := randMat(rng, m, n)
	c2 := c1.Clone()
	gemmBlockedCols(a, b, c1, 0, n, nil)
	gemmDirect(a, b, c2, nil)
	if d := c1.MaxAbsDiff(c2); d > 1e-13*float64(k) {
		t.Fatalf("blocked vs direct max diff %g", d)
	}
}

// benchGemm runs one (m,n,k) dgemm('T','N') through fn, reporting
// GFLOP/s and the bytes each op touches.
func benchGemm(b *testing.B, m, n, k int, fn func(a, bb, c *Matrix)) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, k, m)
	bb := randMat(rng, k, n)
	c := NewMatrix(m, n)
	b.SetBytes(int64(8 * (m*k + k*n + m*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(a, bb, c)
	}
	flops := float64(GemmFlops(m, n, k)) * float64(b.N)
	b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

// BenchmarkKernelGemmBlockedVsDirect pits the packed kernel against the
// Go direct loop on the dominant tile shapes of the evaluation systems
// (benzene 121^3, uracil 210^3, beta-carotene 1332^3) plus the 128^3
// shape the root suite tracks. The direct rows stay on gemmTNGo, not on
// the tier-dispatched gemmTN, so the ratio keeps meaning "packed against
// the plain loop".
func BenchmarkKernelGemmBlockedVsDirect(b *testing.B) {
	for _, sh := range [][3]int{{121, 121, 121}, {128, 128, 128}, {210, 210, 210}, {1332, 1332, 1332}} {
		m, n, k := sh[0], sh[1], sh[2]
		if testing.Short() && m > 1000 {
			continue
		}
		b.Run(fmt.Sprintf("blocked-%dx%dx%d", m, n, k), func(b *testing.B) {
			benchGemm(b, m, n, k, func(a, bb, c *Matrix) {
				gemmBlockedCols(a, bb, c, 0, n, nil)
			})
		})
		b.Run(fmt.Sprintf("direct-%dx%dx%d", m, n, k), func(b *testing.B) {
			benchGemm(b, m, n, k, func(a, bb, c *Matrix) {
				gemmTNGo(a, bb, c)
			})
		})
	}
}

// TestGemmPSerialBranchAllocatesNothing is the GEMM task body's call —
// three AsMatrix() headers handed to GemmP with a scratch shard and no
// helpers (a nil handle takes the branch a one-worker handle does) —
// at a tile too small to split (the direct and the blocked branch both)
// and at one large enough to split: none of the serial branches
// allocates, the headers included.
// The closure of the parallel branch used to capture GemmP's own a, b
// and c, which sent every caller's headers to the heap on every call.
func TestGemmPSerialBranchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	loc := pool.NewLocal()
	defer loc.Drain()
	for _, dim := range [][4]int{{2, 3, 3, 2}, {6, 6, 6, 6}, {12, 12, 12, 12}} {
		// dgemm('T','N'): A is k x m, B is k x n, C is m x n.
		at := NewTile4(dim[0], dim[1], dim[2], dim[3])
		bt := NewTile4(dim[0], dim[1], dim[2], dim[3])
		ct := NewTile4(dim[2], dim[3], dim[2], dim[3])
		at.FillRandom(1, 1)
		bt.FillRandom(2, 1)
		// The same operands born packed, when the tier makes panels.
		pa, pb := at, bt
		if ActiveKernelTier() != TierPortable {
			pa = NewTile4Layout(dim, PanelLayout(PanelA))
			pb = NewTile4Layout(dim, PanelLayout(PanelB))
			pa.FillRandom(1, 1)
			pb.FillRandom(2, 1)
		}
		for _, in := range [][2]*Tile4{{at, bt}, {pa, pb}} {
			body := func() {
				GemmP(nil, loc, in[0].AsMatrix(), in[1].AsMatrix(), ct.AsMatrix())
			}
			body() // warm the scratch shard
			if allocs := testing.AllocsPerRun(5, body); allocs != 0 {
				t.Errorf("GemmP %v %v: %v allocs/call, want 0", dim, in[0].Layout, allocs)
			}
		}
	}
}

// TestGemmBlockedSteadyStateAllocs pins the packing-buffer pooling: a
// warmed-up blocked GEMM allocates nothing.
func TestGemmBlockedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	const m, n, k = 128, 128, 128
	a := randMat(rand.New(rand.NewSource(1)), k, m)
	b := randMat(rand.New(rand.NewSource(2)), k, n)
	c := NewMatrix(m, n)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	Gemm(true, false, 1, a, b, 1, c) // warm the pool classes
	allocs := testing.AllocsPerRun(3, func() {
		Gemm(true, false, 1, a, b, 1, c)
	})
	if allocs != 0 {
		t.Errorf("warmed-up blocked Gemm: %v allocs/run, want 0", allocs)
	}
}
