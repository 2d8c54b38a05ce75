package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"parsec/internal/team"
)

// Tests for born-packed tiles (layout.go): the layout contract of Tile4
// and the blocked GEMM's use of a panel operand, in place or unpacked.

// toPanel returns x (row-major, rows x cols) in layout l, written by an
// index loop that shares no code with the packers or the fill.
func toPanel(x *Matrix, l Layout) *Matrix {
	w := int(l.Strip)
	p := &Matrix{Rows: x.Rows, Cols: x.Cols, Layout: l, Data: make([]float64, l.Len([4]int{x.Rows, 1, x.Cols, 1}))}
	for r := 0; r < x.Rows; r++ {
		for j := 0; j < x.Cols; j++ {
			p.Data[(j/w)*x.Rows*w+r*w+j%w] = x.Data[r*x.Cols+j]
		}
	}
	return p
}

func TestLayoutLenAndValid(t *testing.T) {
	dim := [4]int{2, 3, 5, 3} // 6 x 15
	for _, c := range []struct {
		l     Layout
		len   int
		valid bool
	}{
		{Layout{}, 90, true},
		{Layout{Kind: PanelA, Strip: 8}, 6 * 16, true},
		{Layout{Kind: PanelB, Strip: 16}, 6 * 16, true},
		{Layout{Kind: PanelB, Strip: 4}, 6 * 16, true},
		{Layout{Kind: PanelA, Strip: 0}, 0, false},
		{Layout{Kind: RowMajor, Strip: 8}, 0, false},
		{Layout{Kind: 3, Strip: 8}, 0, false},
		{Layout{Kind: PanelB, Strip: 65}, 0, false},
	} {
		if c.l.Valid() != c.valid {
			t.Errorf("%v: Valid = %v, want %v", c.l, !c.valid, c.valid)
		}
		if c.valid && c.l.Len(dim) != c.len {
			t.Errorf("%v: Len(%v) = %d, want %d", c.l, dim, c.l.Len(dim), c.len)
		}
	}
}

// TestPanelTileContract pins what a panel tile allows: Clone keeps the
// layout, AsMatrix carries it, RowMajorCopy unpacks, and every
// element-wise operation refuses it.
func TestPanelTileContract(t *testing.T) {
	dim := [4]int{3, 4, 5, 7}
	l := Layout{Kind: PanelB, Strip: 8}
	p := NewTile4Layout(dim, l)
	p.FillRandom(5, 1)
	if c := p.Clone(); c.Layout != l || len(c.Data) != l.Len(dim) {
		t.Errorf("Clone: layout %v, %d elements; want %v, %d", c.Layout, len(c.Data), l, l.Len(dim))
	}
	if m := p.AsMatrix(); m.Layout != l || m.Rows != 12 || m.Cols != 35 {
		t.Errorf("AsMatrix: %dx%d %v", m.Rows, m.Cols, m.Layout)
	}
	want := NewTile4(dim[0], dim[1], dim[2], dim[3])
	want.FillRandom(5, 1)
	got := p.RowMajorCopy()
	if got.Layout != (Layout{}) || sameBits(got.Data, want.Data) >= 0 || len(got.Data) != len(want.Data) {
		t.Errorf("RowMajorCopy is not FillRandom's row-major tile")
	}
	rm := NewTile4(dim[0], dim[1], dim[2], dim[3])
	for name, op := range map[string]func(){
		"AddScaled":  func() { rm.AddScaled(p, 1) },
		"MaxAbsDiff": func() { p.MaxAbsDiff(p) },
		"Sort4":      func() { Sort4(NewTile4(dim[0], dim[1], dim[2], dim[3]), p, [4]int{0, 1, 2, 3}, 1) },
		"At":         func() { p.At(0, 0, 0, 0) },
		"Dot": func() {
			a, b := NewBlockTensor4(), NewBlockTensor4()
			a.Put(BlockKey{}, p)
			b.Put(BlockKey{}, p)
			a.Dot(b)
		},
		"GEMM output": func() {
			Gemm(true, false, 1, NewMatrix(12, 12), NewMatrix(12, 12), 1, &Matrix{Rows: 12, Cols: 12, Data: make([]float64, 12*16), Layout: l})
		},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(r.(string), "panel") && !strings.Contains(r.(string), "layout") {
					t.Errorf("%s on a panel: recovered %v, want a layout panic", name, r)
				}
			}()
			op()
		}()
	}
}

// gemmTierCase builds one dgemm problem from folded fuzz inputs: m, n, k
// with m*n*k at or past the blocking cutoff and k up to 300 (past
// gemmKC, where no panel is used in place), edge tiles of every width,
// the transposes, an alpha (1, the only one a panel is used in place at,
// in half the cases), and a C column window [j0, j1).
func gemmTierCase(m8, n8, k8, flags uint8, seed int64) (transA, transB bool, alpha float64, a, b, c *Matrix, j0, j1 int) {
	m, n, k := 8+int(m8)%120, 8+int(n8)%120, 1+int(k8)+int(flags>>4)%4*12
	for !BlockedGemm(m, n, k) {
		k *= 2
	}
	transA, transB = flags&1 == 0, flags&2 != 0
	rng := rand.New(rand.NewSource(seed))
	alpha = 1
	if flags&4 != 0 {
		alpha = []float64{-1, 0.5, 2.75, -1e-3}[rng.Intn(4)]
	}
	ar, ac := m, k
	if transA {
		ar, ac = k, m
	}
	br, bc := k, n
	if transB {
		br, bc = n, k
	}
	a, b, c = randMat(rng, ar, ac), randMat(rng, br, bc), randMat(rng, m, n)
	j0, j1 = 0, n
	if flags&8 != 0 {
		j0 = rng.Intn(n)
		j1 = j0 + 1 + rng.Intn(n-j0)
	}
	return
}

// checkGemmTiers runs one folded case through gemmBlockedCols under
// every host tier with each operand row-major and as a panel of every
// kind and strip width the tiers use (the running tier's own, consumed
// in place when the call allows it, and the others, unpacked), and
// requires:
//   - on each tier, every panel form gives the row-major result bit for
//     bit, and the window leaves C outside it untouched;
//   - the AVX-512 and AVX2 rungs agree bit for bit;
//   - the portable rung, whose unfused multiply and add round once more
//     per step, agrees to 1e-13 relative to k.
func checkGemmTiers(t *testing.T, m8, n8, k8, flags uint8, seed int64) {
	t.Helper()
	transA, transB, alpha, a, b, c0, j0, j1 := gemmTierCase(m8, n8, k8, flags, seed)
	m, n := c0.Rows, c0.Cols
	_, k := opDims(a, transA)
	desc := func(tier KernelTier) string {
		return tier.String() + " " + strings.Join([]string{
			map[bool]string{true: "T", false: "N"}[transA], map[bool]string{true: "T", false: "N"}[transB]}, "")
	}
	forms := func(x *Matrix, kind LayoutKind) []*Matrix {
		out := []*Matrix{x}
		for _, w := range []uint8{4, 8, 16} {
			out = append(out, toPanel(x, Layout{Kind: kind, Strip: w}))
		}
		return out
	}
	results := map[KernelTier][]float64{}
	underHostTiers(TierPortable, func(tier KernelTier) {
		var want []float64
		for _, pa := range forms(a, PanelA) {
			for _, pb := range forms(b, PanelB) {
				got := c0.Clone()
				gemmBlockedCols(transA, transB, alpha, pa, pb, got, j0, j1, nil)
				if want == nil {
					want = got.Data
					for i, v := range got.Data {
						if j := i % n; (j < j0 || j >= j1) && math.Float64bits(v) != math.Float64bits(c0.Data[i]) {
							t.Fatalf("%s m=%d n=%d k=%d window [%d,%d): C[%d][%d] outside the window changed",
								desc(tier), m, n, k, j0, j1, i/n, j)
						}
					}
					continue
				}
				if i := sameBits(got.Data, want); i >= 0 {
					t.Fatalf("%s m=%d n=%d k=%d alpha=%g window [%d,%d) A %v B %v: C[%d][%d] = %v, row-major operands give %v",
						desc(tier), m, n, k, alpha, j0, j1, pa.Layout, pb.Layout, i/n, i%n, got.Data[i], want[i])
				}
			}
		}
		results[tier] = want
	})
	if hi, ok := results[TierAVX512]; ok {
		if i := sameBits(hi, results[TierAVX2]); i >= 0 {
			t.Fatalf("%s m=%d n=%d k=%d: avx512 C[%d][%d] = %v, avx2 %v", desc(TierAVX512), m, n, k, i/n, i%n, hi[i], results[TierAVX2][i])
		}
	}
	if asm, ok := results[hwKernelTier()]; ok && hwKernelTier() != TierPortable {
		tol := 1e-13 * float64(k)
		for i, v := range asm {
			if d := math.Abs(v - results[TierPortable][i]); d > tol*math.Max(1, math.Abs(v)) {
				t.Fatalf("%s m=%d n=%d k=%d: C[%d][%d] = %v, portable %v", desc(hwKernelTier()), m, n, k, i/n, i%n, v, results[TierPortable][i])
			}
		}
	}
}

// TestGemmTiersSweep is the seeded sweep of FuzzGemmTiers, plus the
// production shape: uracil's 210^3 dgemm('T','N') at alpha = 1 over the
// whole C and over a GemmP-style window.
func TestGemmTiersSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	n := 120
	if testing.Short() || raceEnabled {
		n = 30
	}
	for it := 0; it < n; it++ {
		checkGemmTiers(t, uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), rng.Int63())
	}
	checkGemmTiers(t, 202, 202, 209, 0x00, 1) // 210^3, TN, alpha 1
	checkGemmTiers(t, 202, 202, 209, 0x08, 2) // the same over a window
}

// FuzzGemmTiers drives the blocked GEMM with fuzzer-chosen shapes past
// the cutoff, transposes, alpha, C window and operand layouts, requiring
// every panel form to equal the row-major operand bit for bit on every
// host tier and the two assembly tiers to equal each other.
func FuzzGemmTiers(f *testing.F) {
	f.Add(uint8(202), uint8(202), uint8(209), uint8(0x00), int64(1)) // uracil 210^3
	f.Add(uint8(113), uint8(113), uint8(120), uint8(0x08), int64(2)) // benzene-sized, windowed
	f.Add(uint8(25), uint8(40), uint8(255), uint8(0x30), int64(3))   // k = 292 > gemmKC
	f.Add(uint8(9), uint8(119), uint8(40), uint8(0x0f), int64(4))    // NT, alpha != 1, window
	f.Fuzz(func(t *testing.T, m8, n8, k8, flags uint8, seed int64) {
		checkGemmTiers(t, m8, n8, k8, flags, seed)
	})
}

// TestGemmPPanelsMatchRowMajor is the GEMM task body's call with
// born-packed operands of the active tier: split across teams of every
// size (windows on the strip grid, each consuming the panels in place)
// the result is the serial row-major product, bit for bit.
func TestGemmPPanelsMatchRowMajor(t *testing.T) {
	pool3 := team.NewPool(3)
	defer pool3.Close()
	rng := rand.New(rand.NewSource(67))
	for _, s := range [][3]int{{210, 210, 210}, {121, 259, 97}, {16, 16, 16}} {
		m, n, k := s[0], s[1], s[2]
		a, b, c0 := randMat(rng, k, m), randMat(rng, k, n), randMat(rng, m, n)
		pa, pb := toPanel(a, PanelLayout(PanelA)), toPanel(b, PanelLayout(PanelB))
		want := c0.Clone()
		Gemm(true, false, 1, a, b, 1, want)
		for _, par := range []team.Parallelism{nil, team.Serial, pool3} {
			got := c0.Clone()
			GemmP(par, nil, true, false, 1, pa, pb, 1, got)
			if i := sameBits(got.Data, want.Data); i >= 0 {
				t.Fatalf("%dx%dx%d par=%v: C[%d][%d] = %v, row-major %v", m, n, k, par, i/n, i%n, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestSplitColOnStripGrid pins GemmP's column split: every interior
// split point is on the strip grid and every window non-empty.
func TestSplitColOnStripGrid(t *testing.T) {
	for _, nr := range []int{4, 8, 16} {
		for n := gemmParMinCols; n < 700; n += 37 {
			for parts := 1; parts <= n/gemmParMinCols; parts++ {
				prev := splitCol(0, parts, n, nr)
				if prev != 0 {
					t.Fatalf("nr=%d n=%d parts=%d: first window starts at %d", nr, n, parts, prev)
				}
				for p := 1; p <= parts; p++ {
					j := splitCol(p, parts, n, nr)
					if j <= prev || (p < parts && j%nr != 0) {
						t.Fatalf("nr=%d n=%d parts=%d: split %d at %d after %d", nr, n, parts, p, j, prev)
					}
					prev = j
				}
				if prev != n {
					t.Fatalf("nr=%d n=%d parts=%d: last window ends at %d", nr, n, parts, prev)
				}
			}
		}
	}
}
