package tce

import (
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"parsec/internal/molecule"
	"parsec/internal/tensor"
)

// energyCases are the (kernel, system) pairs the streaming-energy tests
// run over: both kernels, a one-irrep and a multi-irrep system.
func energyCases(seed uint64) map[string]*Kernel {
	with := func(sys *molecule.System) *molecule.System {
		sys.Seed = seed
		return sys
	}
	return map[string]*Kernel{
		"water/t2_7":   T2_7(with(molecule.Water631G())),
		"benzene/t2_7": T2_7(with(molecule.Benzene631G())),
		"water/t1_2":   T1_2(with(molecule.Water631G())),
		"benzene/t1_2": T1_2(with(molecule.Benzene631G())),
	}
}

// TestInputLayoutNeedsEveryReader: a block is born packed only when
// every GEMM reading it consumes the panel in place, whichever order
// its readers come in. No preset has a block read by both kinds of
// GEMM, so the workload here is built by hand: 64^3 products take a
// panel, a 64 x 4 x 64 one is below the blocking cutoff.
func TestInputLayoutNeedsEveryReader(t *testing.T) {
	block := func(name string, i, cols int) BlockRef {
		return BlockRef{Tensor: name, Key: tensor.BlockKey{i, 0, 0, 0}, Dims: [4]int{1, 64, 1, cols}}
	}
	a0, a1, a2 := block(TensorA, 0, 64), block(TensorA, 1, 64), block(TensorA, 2, 64)
	b0, b1 := block(TensorB, 0, 64), block(TensorB, 1, 4)
	w := &Workload{}
	for i, ab := range [][2]BlockRef{{a0, b0}, {a0, b1}, {a1, b0}, {a2, b1}, {a2, b0}} {
		n := ab[1].Dims[3]
		w.Chains = append(w.Chains, &ChainMeta{
			ID: i, Out: BlockRef{Tensor: TensorC, Key: tensor.BlockKey{i, 0, 0, 0}, Dims: [4]int{1, 64, 1, n}},
			Gemms: []GemmMeta{{Op: GemmOp{A: ab[0], B: ab[1], M: 64, N: n, K: 64}}},
		})
	}
	ta, tb := w.Inputs()
	panels := tensor.PanelOperands(64, 64, 64)
	for _, c := range []struct {
		tbl  *InputTable
		ref  BlockRef
		kind tensor.LayoutKind // the block's panel, or RowMajor
	}{
		{ta, a0, tensor.RowMajor}, // read in place, then by the small product
		{ta, a1, tensor.PanelA},
		{ta, a2, tensor.RowMajor}, // read by the small product first
		{tb, b0, tensor.PanelB},
		{tb, b1, tensor.RowMajor},
	} {
		i, _ := c.tbl.Lookup(c.ref.Key)
		want := tensor.Layout{}
		if c.kind != tensor.RowMajor && panels {
			want = tensor.PanelLayout(c.kind)
		}
		if got := c.tbl.Layout(i); got != want {
			t.Errorf("%s block %v: %v, want %v", c.ref.Tensor, c.ref.Key, got, want)
		}
	}
}

// TestEnergyStreamsBitwise pins the fold order of the streamed energy:
// for every kernel, system and seed it is bit for bit the inner product
// with the materialized weight tensor — and stays so on an output
// tensor that lacks some blocks or carries foreign ones, which Dot
// skips.
func TestEnergyStreamsBitwise(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for name, k := range energyCases(seed * 0x9e3779b9) {
			w := Inspect(k, nil)
			a, b := w.Materialize()
			c := w.RunReference(a, b)
			check := func(what string) {
				t.Helper()
				got, want := w.Energy(c), c.Dot(w.Weights())
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s seed %d %s: Energy = %x, c.Dot(Weights()) = %x", name, seed, what, got, want)
				}
				if want == 0 {
					t.Errorf("%s seed %d %s: zero energy proves nothing", name, seed, what)
				}
			}
			check("full output")
			keys := c.Keys()
			partial := tensor.NewBlockTensor4()
			for i, key := range keys {
				if i%3 != 1 {
					partial.Put(key, c.MustTile(key))
				}
			}
			partial.Put(tensor.BlockKey{99, 99, 99, 99}, tensor.NewTile4(1, 1, 1, 1))
			c = partial
			check("partial output")
		}
	}
}

// TestEnergyFoldMatchesEnergy pins the fold a run feeds block by block:
// blocks put in random order from several goroutines fold to bitwise
// Energy over the same blocks, for both kernels on a one-irrep and a
// multi-irrep system. The fold's blocks carry −0 where Energy's tensor
// holds +0 — all of the first block in key order, and a few elements of
// another — which is the one way a block adopted from a WRITE differs
// from one folded as 0 + 1·x. A fold missing a block names it instead of
// returning a number.
func TestEnergyFoldMatchesEnergy(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for name, k := range energyCases(seed * 0x51ed) {
			w := Inspect(k, nil)
			a, b := w.Materialize()
			c := w.RunReference(a, b)
			out := w.UniqueBlocks(TensorC)
			tiles := make([]*tensor.Tile4, len(out)) // what the fold is handed, by position
			for i, ref := range out {
				tiles[i] = c.MustTile(ref.Key).Clone()
			}
			signed := func(i, n int) {
				for j := range tiles[i].Data[:n] {
					tiles[i].Data[j] = math.Copysign(0, -1)
					c.MustTile(out[i].Key).Data[j] = 0
				}
			}
			first, mid := int(w.outByKey[0]), int(w.outByKey[len(w.outByKey)/2])
			signed(first, tiles[first].Len())
			signed(mid, min(5, tiles[mid].Len()))
			want := w.Energy(c)

			for round := 0; round < 4; round++ {
				order := rand.New(rand.NewSource(int64(round))).Perm(len(out))
				missing := -1
				if round == 3 {
					missing = order[len(order)/2]
				}
				f := w.NewEnergyFold()
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for n := g; n < len(order); n += 4 {
							if i := order[n]; i != missing {
								f.Put(out[i].Key, tiles[i])
							}
						}
					}(g)
				}
				wg.Wait()
				got, err := f.Energy()
				if missing >= 0 {
					if err == nil || !strings.Contains(err.Error(), out[missing].String()) {
						t.Errorf("%s seed %d: fold without %v returned %v, %v", name, seed, out[missing], got, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s seed %d round %d: fold = %x, Energy = %x", name, seed, round, got, want)
				}
			}
		}
	}
}

// TestEnergyDimsMismatchPanics keeps Dot's guard: an output block whose
// extents differ from the workload's is a bug upstream, not a number.
func TestEnergyDimsMismatchPanics(t *testing.T) {
	w := Inspect(T2_7(molecule.Water631G()), nil)
	ref := w.UniqueBlocks(TensorC)[0]
	c := tensor.NewBlockTensor4()
	c.Put(ref.Key, tensor.NewTile4(ref.Dims[0]+1, ref.Dims[1], ref.Dims[2], ref.Dims[3]))
	defer func() {
		if recover() == nil {
			t.Error("Energy accepted a block of the wrong extents")
		}
	}()
	w.Energy(c)
}

// TestEnergySteadyStateAllocs pins what streaming is for: once the
// scratch pool is warm, an energy evaluation allocates a handful of
// objects, not a weight tensor (16 MB on the benchmark's uracil shape).
func TestEnergySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	w := Inspect(T2_7(molecule.Benzene631G()), nil)
	c := tensor.NewBlockTensor4()
	for _, ref := range w.UniqueBlocks(TensorC) {
		c.GetOrCreate(ref.Key, ref.Dims).FillRandom(7, 1)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w.Energy(c)
	if allocs := testing.AllocsPerRun(5, func() { w.Energy(c) }); allocs > 4 {
		t.Errorf("warmed-up Energy: %v allocs/run, want <= 4", allocs)
	}
}

// TestInputTablesMatchWorkload pins the block tables against the
// metadata they index: Blocks is UniqueBlocks, every GEMM resolves to
// the block it names, and the use counts add up to the GEMM count.
func TestInputTablesMatchWorkload(t *testing.T) {
	for name, k := range energyCases(3) {
		w := Inspect(k, nil)
		ta, tb := w.Inputs()
		aName, bName := w.InputTensors()
		for _, c := range []struct {
			tbl  *InputTable
			name string
			ref  func(GemmOp) BlockRef
		}{
			{ta, aName, func(g GemmOp) BlockRef { return g.A }},
			{tb, bName, func(g GemmOp) BlockRef { return g.B }},
		} {
			uniq := w.UniqueBlocks(c.name)
			if c.tbl.Name != c.name || c.tbl.NumBlocks() != len(uniq) {
				t.Fatalf("%s: table %q has %d blocks, want %q with %d", name, c.tbl.Name, c.tbl.NumBlocks(), c.name, len(uniq))
			}
			var uses, gemms int
			for i, ref := range uniq {
				if c.tbl.Blocks[i] != ref || c.tbl.Dims(i) != ref.Dims {
					t.Fatalf("%s %s: block %d is %v, want %v", name, c.name, i, c.tbl.Blocks[i], ref)
				}
				if j, ok := c.tbl.Lookup(ref.Key); !ok || j != i {
					t.Fatalf("%s %s: Lookup(%v) = %d, %v, want %d", name, c.name, ref.Key, j, ok, i)
				}
				if c.tbl.Uses(i) < 1 {
					t.Errorf("%s %s: block %d has no reader", name, c.name, i)
				}
				uses += c.tbl.Uses(i)
			}
			for ci, ch := range w.Chains {
				for gi, g := range ch.Gemms {
					gemms++
					if got := c.tbl.Blocks[c.tbl.BlockOf(ci, gi)]; got != c.ref(g.Op) {
						t.Fatalf("%s %s: GEMM(%d,%d) resolves to %v, reads %v", name, c.name, ci, gi, got, c.ref(g.Op))
					}
				}
			}
			if uses != gemms {
				t.Errorf("%s %s: use counts sum to %d, want one per GEMM = %d", name, c.name, uses, gemms)
			}
			// A block is born packed exactly when every GEMM reading it
			// consumes the panel in place.
			inPlace := map[BlockRef]bool{}
			for _, ch := range w.Chains {
				for _, g := range ch.Gemms {
					r := c.ref(g.Op)
					ok, seen := inPlace[r]
					inPlace[r] = (ok || !seen) && tensor.PanelOperands(g.Op.M, g.Op.N, g.Op.K)
				}
			}
			side := map[bool]tensor.LayoutKind{true: tensor.PanelA, false: tensor.PanelB}[c.name == aName]
			for i, ref := range uniq {
				want := tensor.Layout{}
				if inPlace[ref] {
					want = tensor.PanelLayout(side)
				}
				if got := c.tbl.Layout(i); got != want {
					t.Errorf("%s %s: block %d is %v, want %v", name, c.name, i, got, want)
				}
			}
			if _, ok := c.tbl.Lookup(tensor.BlockKey{-1, 0, 0, 0}); ok {
				t.Errorf("%s %s: Lookup found a block that does not exist", name, c.name)
			}
			tile := tensor.NewTile4(uniq[0].Dims[0], uniq[0].Dims[1], uniq[0].Dims[2], uniq[0].Dims[3])
			want := tensor.NewTile4(uniq[0].Dims[0], uniq[0].Dims[1], uniq[0].Dims[2], uniq[0].Dims[3])
			c.tbl.Fill(0, tile)
			w.FillBlock(uniq[0], want)
			if tile.MaxAbsDiff(want) != 0 {
				t.Errorf("%s %s: Fill(0) differs from FillBlock", name, c.name)
			}
		}
	}
}
