package tce

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"parsec/internal/molecule"
	"parsec/internal/tensor"
)

func TestSortBranchesMultiplicity(t *testing.T) {
	cases := []struct {
		p3, p4, h1, h2 int
		want           int
	}{
		{0, 1, 0, 1, 1}, // all strict: exactly one branch
		{0, 0, 0, 1, 2}, // p3 == p4
		{0, 1, 2, 2, 2}, // h1 == h2
		{3, 3, 2, 2, 4}, // both equal: all four branches
	}
	for _, c := range cases {
		got := SortBranches(c.p3, c.p4, c.h1, c.h2)
		if len(got) != c.want {
			t.Errorf("SortBranches(%d,%d,%d,%d) = %d branches, want %d",
				c.p3, c.p4, c.h1, c.h2, len(got), c.want)
		}
		if got[0].Branch != 0 {
			t.Error("branch 0 must always fire for canonical tiles")
		}
	}
}

func TestSortBranchDimsConsistent(t *testing.T) {
	// Every active branch of a canonical chain must produce a tile with
	// the output block's dims (precondition for accumulating variants).
	src := tensor.NewTile4(3, 2, 3, 2) // (p3, h1, p4, h2) with sz(p3)=sz(p4), sz(h1)=sz(h2)
	for _, s := range SortBranches(1, 1, 2, 2) {
		d := src.SortedDims(s.Perm)
		if d != [4]int{3, 3, 2, 2} {
			t.Errorf("branch %d dims %v, want (3,3,2,2)", s.Branch, d)
		}
	}
}

func TestWalkEmitsWellFormedChains(t *testing.T) {
	sys := molecule.Water631G()
	w := Inspect(T2_7(sys), nil)
	if w.NumChains() == 0 {
		t.Fatal("no chains emitted")
	}
	for i, c := range w.Chains {
		if c.ID != i {
			t.Fatalf("chain %d has ID %d", i, c.ID)
		}
		if len(c.Gemms) == 0 {
			t.Fatalf("chain %d empty (StartChain without GEMMs)", i)
		}
		if len(c.Sorts) == 0 || len(c.Sorts) > 4 {
			t.Fatalf("chain %d has %d sorts", i, len(c.Sorts))
		}
		for pos, g := range c.Gemms {
			op := g.Op
			// GEMM dims must match the block shapes.
			if op.M != op.A.Dims[2]*op.A.Dims[3] {
				t.Fatalf("chain %d pos %d: M=%d, A dims %v", i, pos, op.M, op.A.Dims)
			}
			if op.K != op.A.Dims[0]*op.A.Dims[1] || op.K != op.B.Dims[0]*op.B.Dims[1] {
				t.Fatalf("chain %d pos %d: K mismatch", i, pos)
			}
			if op.N != op.B.Dims[2]*op.B.Dims[3] {
				t.Fatalf("chain %d pos %d: N mismatch", i, pos)
			}
			// C dims (p3,h1,p4,h2) must agree with M and N.
			if c.CDims[0]*c.CDims[1] != op.M || c.CDims[2]*c.CDims[3] != op.N {
				t.Fatalf("chain %d: CDims %v vs M=%d N=%d", i, c.CDims, op.M, op.N)
			}
			// Iteration vector consistency: the A block's key is
			// (h7, p5, p3, h1).
			if op.A.Key != (tensor.BlockKey{op.Iter.H7, op.Iter.P5, op.Iter.P3, op.Iter.H1}) {
				t.Fatalf("chain %d pos %d: A key %v vs iter %v", i, pos, op.A.Key, op.Iter)
			}
			if op.B.Key != (tensor.BlockKey{op.Iter.H7, op.Iter.P5, op.Iter.P4, op.Iter.H2}) {
				t.Fatalf("chain %d pos %d: B key %v vs iter %v", i, pos, op.B.Key, op.Iter)
			}
		}
		// Canonical output ordering.
		if c.Out.Key[0] > c.Out.Key[1] || c.Out.Key[2] > c.Out.Key[3] {
			t.Fatalf("chain %d output %v not canonical", i, c.Out.Key)
		}
	}
}

func TestWalkRespectsSymmetry(t *testing.T) {
	sys := molecule.Water631G()
	k := T2_7(sys)
	w := Inspect(k, nil)
	for _, c := range w.Chains {
		for _, g := range c.Gemms {
			iv := g.Op.Iter
			p3, p4 := sys.Virt[iv.P3], sys.Virt[iv.P4]
			h1, h2 := sys.Occ[iv.H1], sys.Occ[iv.H2]
			h7, p5 := sys.Occ[iv.H7], sys.Virt[iv.P5]
			if !k.AAllowed(h7, p5, p3, h1) || !k.BAllowed(h7, p5, p4, h2) {
				t.Fatalf("emitted GEMM violates block symmetry: %v", iv)
			}
			if !k.OutAllowed(p3, p4, h1, h2) {
				t.Fatalf("emitted chain output violates symmetry: %v", iv)
			}
		}
	}
}

// Property: A-allowed and B-allowed imply Out-allowed (closure of the
// XOR irrep algebra and spin conservation) for arbitrary tile labels.
func TestPropertySymmetryClosure(t *testing.T) {
	f := func(s3, s4, s1, s2, s7, s5 bool, i3, i4, i1, i2, i7, i5 uint8) bool {
		mk := func(spin bool, irr uint8) molecule.Tile {
			sp := 0
			if spin {
				sp = 1
			}
			return molecule.Tile{Spin: sp, Irrep: int(irr % 8)}
		}
		p3, p4 := mk(s3, i3), mk(s4, i4)
		h1, h2 := mk(s1, i1), mk(s2, i2)
		h7, p5 := mk(s7, i7), mk(s5, i5)
		k := &Kernel{Sys: &molecule.System{NIrreps: 8}}
		if k.AAllowed(h7, p5, p3, h1) && k.BAllowed(h7, p5, p4, h2) {
			return k.OutAllowed(p3, p4, h1, h2)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInspectLocator(t *testing.T) {
	sys := molecule.Water631G()
	w := Inspect(T2_7(sys), func(b BlockRef) int {
		return int(b.Key[0]+b.Key[1]+b.Key[2]+b.Key[3]) % 3
	})
	for _, c := range w.Chains {
		if c.OutNode < 0 || c.OutNode > 2 {
			t.Fatalf("OutNode %d out of range", c.OutNode)
		}
		for _, g := range c.Gemms {
			if g.ANode < 0 || g.BNode < 0 {
				t.Fatal("locator not applied to inputs")
			}
		}
	}
	// Without a locator, nodes are -1.
	w2 := Inspect(T2_7(sys), nil)
	if w2.Chains[0].OutNode != -1 || w2.Chains[0].Gemms[0].ANode != -1 {
		t.Error("nil locator should record -1")
	}
}

func TestStats(t *testing.T) {
	sys := molecule.Water631G()
	w := Inspect(T2_7(sys), nil)
	s := w.Stats()
	if s.Chains != w.NumChains() || s.Gemms == 0 {
		t.Fatalf("stats: %+v", s)
	}
	if s.MinLen <= 0 || s.MaxLen < s.MinLen {
		t.Errorf("chain length bounds: %+v", s)
	}
	if s.MeanLen < float64(s.MinLen) || s.MeanLen > float64(s.MaxLen) {
		t.Errorf("mean outside [min,max]: %+v", s)
	}
	if s.TotalFlops <= 0 || s.InputBytes <= 0 || s.OutputBytes <= 0 {
		t.Errorf("nonpositive totals: %+v", s)
	}
	if s.String() == "" {
		t.Error("empty Stats string")
	}
}

func TestUniqueBlocksDeterministicAndComplete(t *testing.T) {
	sys := molecule.Water631G()
	w := Inspect(T2_7(sys), nil)
	a1 := w.UniqueBlocks(TensorA)
	a2 := w.UniqueBlocks(TensorA)
	if len(a1) == 0 || len(a1) != len(a2) {
		t.Fatal("UniqueBlocks empty or nondeterministic length")
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("UniqueBlocks order not deterministic")
		}
	}
	// Every GEMM's A block must appear.
	set := map[string]bool{}
	for _, b := range a1 {
		set[b.String()] = true
	}
	for _, c := range w.Chains {
		for _, g := range c.Gemms {
			if !set[g.Op.A.String()] {
				t.Fatalf("missing A block %v", g.Op.A)
			}
		}
	}
	// The lists are derived once per workload; a second inspection of the
	// same system must derive the same ones: no block twice, each list in
	// ascending printed order, for inputs and outputs alike.
	w2 := Inspect(T2_7(sys), nil)
	for _, name := range []string{TensorA, TensorB, TensorC} {
		got, again := w.UniqueBlocks(name), w2.UniqueBlocks(name)
		if len(got) == 0 || !slices.Equal(got, again) {
			t.Fatalf("%s: %d blocks vs %d from a second inspection", name, len(got), len(again))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].String() >= got[i].String() {
				t.Fatalf("%s: %v listed before %v", name, got[i-1], got[i])
			}
		}
	}
	if w.UniqueBlocks("nosuch") != nil {
		t.Error("blocks listed for a tensor the workload never references")
	}
}

func TestReferenceDeterministic(t *testing.T) {
	sys := molecule.Water631G()
	w := Inspect(T2_7(sys), nil)
	a, b := w.Materialize()
	c1 := w.RunReference(a, b)
	c2 := w.RunReference(a, b)
	if c1.MaxAbsDiff(c2) != 0 {
		t.Error("reference not deterministic")
	}
	e1, e2 := w.Energy(c1), w.Energy(c2)
	if e1 != e2 {
		t.Error("energy not deterministic")
	}
	if e1 == 0 || math.IsNaN(e1) {
		t.Errorf("degenerate energy %v", e1)
	}
}

func TestReferenceMatchesDirectContraction(t *testing.T) {
	// Independently recompute one output block by looping over orbitals:
	// i0[p3,p4,h1,h2] (canonical, branch-0 contribution only, for a chain
	// with a single active branch) must equal sum over (h7,p5) blocks of
	// A^T * B remapped by the branch-0 permutation.
	sys := molecule.Water631G()
	w := Inspect(T2_7(sys), nil)
	a, b := w.Materialize()
	out := w.RunReference(a, b)

	var target *ChainMeta
	for _, c := range w.Chains {
		if len(c.Sorts) == 1 {
			target = c
			break
		}
	}
	if target == nil {
		t.Skip("no single-branch chain in this system")
	}
	// Recompute the chain's C buffer naively.
	cbuf := tensor.NewTile4(target.CDims[0], target.CDims[1], target.CDims[2], target.CDims[3])
	for _, g := range target.Gemms {
		at := a.MustTile(g.Op.A.Key)
		bt := b.MustTile(g.Op.B.Key)
		for m := 0; m < g.Op.M; m++ {
			for n := 0; n < g.Op.N; n++ {
				var s float64
				for kk := 0; kk < g.Op.K; kk++ {
					s += at.Data[kk*g.Op.M+m] * bt.Data[kk*g.Op.N+n]
				}
				cbuf.Data[m*g.Op.N+n] += s
			}
		}
	}
	want := tensor.NewTile4(target.Out.Dims[0], target.Out.Dims[1], target.Out.Dims[2], target.Out.Dims[3])
	tensor.Sort4(want, cbuf, target.Sorts[0].Perm, target.Sorts[0].Sign)
	got := out.MustTile(target.Out.Key)
	if d := got.MaxAbsDiff(want); d > 1e-12 {
		t.Errorf("reference block differs from direct contraction by %g", d)
	}
}

func TestBetaCaroteneWorkloadScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	w := Inspect(T2_7(molecule.BetaCarotene631G()), nil)
	s := w.Stats()
	t.Logf("beta-carotene workload: %v", s)
	// Scale sanity: the real run's icsd_t2_7 does tens of teraflops and
	// hundreds of chains (§V); our block structure must land in that
	// regime for the Fig 9 shape to be meaningful.
	if s.Chains < 100 || s.Chains > 20000 {
		t.Errorf("chains = %d, outside plausible range", s.Chains)
	}
	if s.TotalFlops < 1e12 || s.TotalFlops > 5e14 {
		t.Errorf("flops = %g, outside plausible range", float64(s.TotalFlops))
	}
}
