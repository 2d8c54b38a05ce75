package ccsd

import (
	"errors"
	"fmt"
	"math"
	stdruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"parsec/internal/ga"
	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/tce"
	"parsec/internal/tensor"
)

// shapedWorkload inspects a synthetic system with the orbital-space
// structure of a preset (the benchmark's "uracil-shaped" and
// "benzene-shaped" problems).
func shapedWorkload(name string) *tce.Workload {
	return tce.Inspect(tce.T2_7(shapedSystem(name)), nil)
}

// shapedSystem is the system behind shapedWorkload.
func shapedSystem(name string) *molecule.System {
	shapes := map[string][4]int{
		"uracil":  {29, 59, 16, 4},
		"benzene": {21, 45, 12, 2},
	}
	s := shapes[name]
	return molecule.Custom(name+"-shaped", s[0], s[1], s[2], s[3], 0x5eed)
}

// inputBytes returns the number and total storage of a workload's
// distinct input blocks, and how many of them are born packed: a panel's
// storage includes its strip padding.
func inputBytes(w *tce.Workload) (blocks int, bytes int64, panels int) {
	a, b := w.Inputs()
	for _, tbl := range []*tce.InputTable{a, b} {
		blocks += tbl.NumBlocks()
		for i, ref := range tbl.Blocks {
			l := tbl.Layout(i)
			bytes += int64(l.Len(ref.Dims)) * 8
			if l.Kind != tensor.RowMajor {
				panels++
			}
		}
	}
	return blocks, bytes, panels
}

// eagerInputStore is inputStore with every input block filled up front,
// row-major, from Materialize — the store the reference and the traced
// harness run on, which never sees a panel.
func eagerInputStore(w *tce.Workload) *ga.Store {
	store := ga.NewStore(1)
	a, b := w.Materialize()
	aName, bName := w.InputTensors()
	for _, in := range []struct {
		name string
		bt   *tensor.BlockTensor4
	}{{aName, a}, {bName, b}} {
		arr := store.Create(in.name)
		for _, k := range in.bt.Keys() {
			arr.Put(k, in.bt.MustTile(k))
		}
	}
	store.Create(tce.TensorC)
	return store
}

// TestInputsFlowThroughGraph pins the read path of a real execution:
// every input block is generated exactly once, by the READ that first
// reaches it; the GEMM that last reads it retires it, so nothing is
// resident when the run ends; and how much is resident at the worst
// moment is the variant's read-ahead window — with §IV-C's priorities
// (v1, v5) reads run a bounded distance ahead of the GEMMs that consume
// them, without them (v2) every read runs first and the whole input set
// is resident at once, the flooding the paper reports for v2. Residency
// is storage: on an assembly tier the shapes' inputs are born packed,
// and a panel's strip padding counts while it is resident.
func TestInputsFlowThroughGraph(t *testing.T) {
	shapes := []string{"uracil", "benzene"}
	if testing.Short() {
		shapes = shapes[1:]
	}
	for _, shape := range shapes {
		w := shapedWorkload(shape)
		ref := ReferenceEnergy(w)
		blocks, total, panels := inputBytes(w)
		if tensor.ActiveKernelTier() != tensor.TierPortable && panels == 0 {
			t.Errorf("%s: no input block is born packed on the %v tier", shape, tensor.ActiveKernelTier())
		}
		for _, name := range []string{"v1", "v2", "v5"} {
			spec, err := VariantByName(name)
			if err != nil {
				t.Fatal(err)
			}
			plan := CompileWorkload(w, spec, Options{Nodes: 1})
			for _, workers := range []int{1, 2, 4} {
				cell := fmt.Sprintf("%s/%s/workers=%d", shape, name, workers)
				store := inputStore(w)
				if _, err := plan.runOn(store, ExecConfig{Workers: workers}, false); err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				if d := EnergyRelDiff(w.Energy(store.Array(tce.TensorC)), ref); d > EnergyTol {
					t.Errorf("%s: energy off the reference by %g", cell, d)
				}
				st := store.LazyStats()
				if st.Fills != int64(blocks) {
					t.Errorf("%s: %d fills, want one per distinct input block = %d", cell, st.Fills, blocks)
				}
				if st.ResidentBytes != 0 {
					t.Errorf("%s: %d input bytes resident at run end, want 0", cell, st.ResidentBytes)
				}
				if st.Allocated > st.Fills {
					t.Errorf("%s: %d tiles allocated for %d fills", cell, st.Allocated, st.Fills)
				}
				frac := float64(st.PeakBytes) / float64(total)
				t.Logf("%s: peak resident %.1f of %.1f MB (%.2f), %d tiles allocated for %d fills",
					cell, float64(st.PeakBytes)/1e6, float64(total)/1e6, frac, st.Allocated, st.Fills)
				if spec.UsePriorities() {
					if frac > 0.6 {
						t.Errorf("%s: peak resident inputs %.2f of the total, want <= 0.6 under the read priorities", cell, frac)
					}
				} else if st.PeakBytes != total {
					t.Errorf("%s: peak resident inputs %d B, want all %d B, padding included (no priorities: reads flood)", cell, st.PeakBytes, total)
				}
			}
		}
	}
}

// TestPanelInputsMatchRowMajor runs uracil- and benzene-shaped plans
// twice on one kernel tier: on lazily filled inputs, born packed where
// the table says so, and on the same inputs eagerly filled row-major.
// Every GEMM reads the same values in the same k order either way, so
// the energies are the same bits.
func TestPanelInputsMatchRowMajor(t *testing.T) {
	shapes := []string{"uracil", "benzene"}
	if testing.Short() {
		shapes = shapes[1:]
	}
	for _, shape := range shapes {
		w := shapedWorkload(shape)
		_, _, panels := inputBytes(w)
		for _, name := range []string{"v1", "v5"} {
			spec, _ := VariantByName(name)
			plan := CompileWorkload(w, spec, Options{Nodes: 1})
			energy := func(store *ga.Store) float64 {
				if _, err := plan.runOn(store, ExecConfig{Workers: 2}, false); err != nil {
					t.Fatalf("%s/%s: %v", shape, name, err)
				}
				return w.Energy(store.Array(tce.TensorC))
			}
			packed, rowMajor := energy(inputStore(w)), energy(eagerInputStore(w))
			if math.Float64bits(packed) != math.Float64bits(rowMajor) {
				t.Errorf("%s/%s: energy %.17g with %d panel inputs, %.17g row-major", shape, name, packed, panels, rowMajor)
			}
		}
	}
}

// TestCancelledRunLeaksNothing cancels an execution mid-way, with input
// blocks resident and retired tiles on the free list. The store owns
// all of them — no tile went to a process-wide pool — so once the store
// is dropped the heap is back where it started.
func TestCancelledRunLeaksNothing(t *testing.T) {
	w := shapedWorkload("benzene")
	spec, _ := VariantByName("v5")
	plan := CompileWorkload(w, spec, Options{Nodes: 1})
	blocks, _, _ := inputBytes(w)
	if _, err := plan.Execute(ExecConfig{Workers: 2}); err != nil { // skeleton, pools
		t.Fatal(err)
	}
	heap := func() int64 {
		for i := 0; i < 3; i++ { // sync.Pool contents survive one cycle
			stdruntime.GC()
		}
		var m stdruntime.MemStats
		stdruntime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()

	cancel := make(chan struct{})
	var gemms atomic.Int32
	store := inputStore(w)
	_, err := plan.runOn(store, ExecConfig{Workers: 2, Cancel: cancel,
		TaskDelay: func(_ int, ref ptg.TaskRef) time.Duration {
			// Called by the worker before each body: closing here lands
			// the cancel mid-run however fast the machine is.
			if ref.Class == "GEMM" && gemms.Add(1) == 60 {
				close(cancel)
			}
			return 0
		}}, false)
	if !errors.Is(err, runtime.ErrCanceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	st := store.LazyStats()
	if st.Fills == 0 || st.Fills >= int64(blocks) || st.ResidentBytes < 1<<20 {
		t.Fatalf("cancel did not land mid-run: %d of %d blocks filled, %d B resident", st.Fills, blocks, st.ResidentBytes)
	}
	// What was resident at the cancel still reads back right: the store
	// is consistent, just unfinished.
	a, _ := w.Inputs()
	d := a.Blocks[0].Dims
	want := tensor.NewTile4(d[0], d[1], d[2], d[3])
	w.FillBlock(a.Blocks[0], want)
	if store.GetHashBlock(a.Name, a.Blocks[0].Key).MaxAbsDiff(want) != 0 {
		t.Error("an input block of the cancelled store reads back wrong")
	}

	store = nil
	if leaked := heap() - before; leaked > st.ResidentBytes/4 {
		t.Errorf("%d B still live after dropping a cancelled run's store (it held %d B of inputs)", leaked, st.ResidentBytes)
	}
}

// TestBodiesClearInputsTheyRelease pins the body side of ptg.Ctx's
// ownership rule: a body that returns an input tile to the pool — REDUCE
// its folded siblings, the merged SORT the chain's final C — sets that
// In slot to nil. An executor that owns some inputs' storage (a netrun
// rank, for tiles that came off the wire) reads the slot to know the
// tile is already gone; a body that released without clearing would have
// it returned twice. Each graph runs on one worker through the same
// completion the runtime uses, with a check in front: the Out buffer is
// prefilled with the inputs, so an untouched Out slot still names a tile
// the body released.
func TestBodiesClearInputsTheyRelease(t *testing.T) {
	sys := molecule.Water631G()
	for _, name := range []string{"v1", "v2", "v3", "v4", "v5", "seg=2,fission=sorts", "seg=2,tree=3"} {
		recipe, err := VariantByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plan := Compile(sys, recipe, Options{Nodes: 1})
		tr, err := ptg.NewTracker(plan.NewGraph(inputStore(plan.Workload)))
		if err != nil {
			t.Fatal(err)
		}
		released := 0
		var x *runtime.Executor
		x = runtime.NewExecutor(runtime.Config{Workers: 1, Policy: recipe.Policy()}, runtime.Hooks{
			Start: tr.Start,
			Complete: func(in *ptg.Instance, out []any, ready []*ptg.Instance) ([]*ptg.Instance, error) {
				for fi, p := range out {
					if tile, ok := p.(*tensor.Tile4); ok && tile.Data == nil && tile.Len() == 0 {
						released++
						if in.In[fi] != nil {
							return ready, fmt.Errorf("%v released its input %s and left the slot set", in.Ref, in.Class.Flows[fi].Name)
						}
					}
				}
				ready, err := tr.CompleteDeliver(in, out, ready)
				if err == nil && tr.Done() {
					x.Halt()
				}
				return ready, err
			},
		})
		x.Preload(tr.AppendInitialReady(nil))
		if err := x.Run(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !tr.Done() {
			t.Errorf("%s: run stopped with %d tasks left", name, tr.Remaining())
		}
		// Every recipe here reduces segments or merges its sorts, bar v1
		// (one serial chain, one SORT per permutation).
		if released == 0 && name != "v1" {
			t.Errorf("%s: no body released an input; the check saw nothing", name)
		}
	}
}
