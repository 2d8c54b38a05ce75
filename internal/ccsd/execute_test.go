package ccsd

import (
	"fmt"
	"math"
	"math/rand"
	stdruntime "runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"parsec/internal/ga"
	"parsec/internal/molecule"
	"parsec/internal/runtime"
	"parsec/internal/sched"
	"parsec/internal/tce"
	"parsec/internal/xform"
)

// runOn binds the plan to store and runs the graph to completion on a
// runner of its own, recording spans if asked: a run outside the
// execution contexts, over a store the test owns.
func (p *CompiledPlan) runOn(store ga.API, cfg ExecConfig, record bool) (runtime.Report, error) {
	return p.run(new(runtime.Runner), p.NewGraph(store), cfg, record)
}

// arrayEnergy runs plan the way a caller holding the store does: its
// graph over a plain output array (NewGraph, runtime.Run), then
// Store.Array(C), whose ordered flush folds every block after the run,
// and Energy over the result. Execute must give these bits.
func arrayEnergy(t testing.TB, plan *CompiledPlan, cfg ExecConfig) float64 {
	t.Helper()
	store := inputStore(plan.Workload)
	if _, err := plan.runOn(store, cfg, false); err != nil {
		t.Fatal(err)
	}
	return plan.Workload.Energy(store.Array(tce.TensorC))
}

// TestExecuteMatchesArrayPathEveryRecipe is the differential pin of the
// in-run fold: for every recipe of testdata/variant_sigs.json, on a
// water and a benzene-shaped system, at 1, 2 and 4 workers under each
// queue mode, Execute's energy is bitwise the energy of the same plan
// run over a plain store and read back through Array — which the
// ordered reduce makes one number for every worker count and queue mode
// — and within EnergyTol of the serial reference. Under -short or
// -race the benzene-shaped runs take one queue mode per worker count,
// rotating with the row, so the nine pairs are still all covered.
func TestExecuteMatchesArrayPathEveryRecipe(t *testing.T) {
	systems := []struct {
		name string
		sys  *molecule.System
	}{{"water", molecule.Water631G()}, {"benzene-shaped", shapedSystem("benzene")}}
	queues := []sched.QueueMode{sched.SharedQueue, sched.PerWorker, sched.PerWorkerSteal}
	workloads := map[string]*tce.Workload{}
	refs := map[string]float64{}
	for row, gs := range goldenRows(t) {
		recipe := gs.recipe(t)
		for _, sys := range systems {
			key := gs.Kernel + "/" + sys.name
			w := workloads[key]
			if w == nil {
				var err error
				if w, err = InspectKernel(sys.sys, gs.Kernel, 1); err != nil {
					t.Fatal(err)
				}
				workloads[key], refs[key] = w, ReferenceEnergy(w)
			}
			plan := CompileWorkload(w, recipe, Options{Nodes: gs.Nodes})
			diagonal := sys.name != "water" && (testing.Short() || raceEnabled)
			t.Run(fmt.Sprintf("%s/%s/nodes=%d", key, recipe.Name, gs.Nodes), func(t *testing.T) {
				want := arrayEnergy(t, plan, ExecConfig{Workers: 2})
				if d := EnergyRelDiff(want, refs[key]); d > EnergyTol {
					t.Errorf("Array path off the reference by %g", d)
				}
				for wi, workers := range []int{1, 2, 4} {
					for qi, q := range queues {
						if diagonal && qi != (wi+row)%len(queues) {
							continue
						}
						res, err := plan.Execute(ExecConfig{Workers: workers, Queue: q})
						if err != nil {
							t.Fatalf("workers=%d %v: %v", workers, q, err)
						}
						if math.Float64bits(res.Energy) != math.Float64bits(want) {
							t.Errorf("workers=%d %v: Execute %x, Array path %x", workers, q, res.Energy, want)
						}
					}
				}
			})
		}
	}
}

// TestCountMismatchFailsLoudly moves one output block's contribution
// count by +1 and by -1, the way a drift between writeCounts and the
// WRITE bodies would. One too many leaves the block incomplete when the
// run ends, and Execute names it; one too few completes it early, and
// the WRITE whose contribution comes after fails the run. Neither
// returns an energy. Both shapes of WRITE are covered: one contribution
// per block (v5) and several (fissioned sorts across a span of two).
func TestCountMismatchFailsLoudly(t *testing.T) {
	w := waterWorkload()
	for _, name := range []string{"v5", "seg=2,fission=sorts,span=2"} {
		recipe, err := VariantByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, delta := range []int{+1, -1} {
			plan := CompileWorkload(w, recipe, Options{Nodes: 1})
			// The block with the most contributions, so -1 still leaves
			// some to complete it early where the recipe has several.
			counts := writeCounts(plan.ps, plan.Shape)
			var block tce.BlockRef
			for _, c := range w.Chains {
				if counts[c.Out.Key] > counts[block.Key] || block.Tensor == "" {
					block = c.Out
				}
			}
			counts[block.Key] += delta
			plan.countsOnce.Do(func() { plan.outCounts = ga.NewCounts(counts) })
			res, err := plan.Execute(ExecConfig{Workers: 2})
			want := "never completed"
			if delta < 0 {
				want = "beyond its count"
			}
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), block.Key.String()) {
				t.Errorf("%s, count %+d on %v: energy %v, error %v; want an error saying %q", name, delta, block, res.Energy, err, want)
			}
		}
	}
}

// FuzzRecipeExecute feeds recipe strings through xform.Parse. One that
// parses must compile on water and run, at the fuzzed worker count and
// queue mode, to an Execute energy bitwise the Array path's and within
// EnergyTol of the serial reference. The seeds are the pinned recipes
// of testdata/variant_sigs.json, the widest tree a class can carry, and
// a fixed sweep of generated recipes in the flat grammar's spellings;
// `go test` runs them all.
func FuzzRecipeExecute(f *testing.F) {
	for _, gs := range goldenRows(f) {
		f.Add(gs.recipe(f).Name, uint8(2), uint8(0))
	}
	f.Add("seg=1,tree=32", uint8(1), uint8(1))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		var terms []string
		if rng.Intn(4) > 0 {
			terms = append(terms, []string{"seg=full", "seg=0", "seg=1", "seg=2", "seg=3", "seg=7"}[rng.Intn(6)])
		}
		if rng.Intn(2) > 0 {
			terms = append(terms, fmt.Sprintf("tree=%d", 2+rng.Intn(6)))
		}
		fission := []string{"none", "sorts", "writes"}[rng.Intn(3)]
		terms = append(terms, "fission="+fission)
		if rng.Intn(2) > 0 {
			terms = append(terms, "prio="+[]string{"none", "paper"}[rng.Intn(2)])
		}
		if fission != "writes" && rng.Intn(2) > 0 {
			terms = append(terms, fmt.Sprintf(" span = %d", 1+rng.Intn(4)))
		}
		rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
		f.Add(strings.Join(terms, ","), uint8(rng.Intn(4)), uint8(rng.Intn(3)))
	}

	w := waterWorkload()
	ref := ReferenceEnergy(w)
	f.Fuzz(func(t *testing.T, src string, workers, queue uint8) {
		recipe, err := xform.Parse(src)
		if err != nil {
			return
		}
		// A span puts that many WRITEs on every chain; past a few dozen
		// the recipe asks for more tasks than a fuzz iteration should run.
		if recipe.MustShape().WriteSpan > 32 {
			t.Skip("write span too wide for one fuzz iteration")
		}
		plan := CompileWorkload(w, recipe, Options{Nodes: 1})
		cfg := ExecConfig{Workers: 1 + int(workers%4), Queue: sched.QueueMode(queue % 3)}
		res, err := plan.Execute(cfg)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if want := arrayEnergy(t, plan, cfg); math.Float64bits(res.Energy) != math.Float64bits(want) {
			t.Errorf("%q: Execute %x, Array path %x", src, res.Energy, want)
		}
		if d := EnergyRelDiff(res.Energy, ref); d > EnergyTol {
			t.Errorf("%q: energy off the reference by %g", src, d)
		}
	})
}

// TestExecuteAllocatesLessThanArrayPath pins what folding inside the run
// saves: on the benzene shape a warm Execute allocates at least the
// output's size fewer bytes than the Array path on the same plan, whose
// flush builds a zeroed copy of every block beside the sorted tiles
// Execute adopts. Each measured run follows a warm-up with the garbage
// collector held off across both, so the tile pools it draws from are
// as full as the warm-up left them; the least of three such runs counts.
// One worker, because two split the pooled tiles differently run to run
// and the margin is a few percent of the output.
func TestExecuteAllocatesLessThanArrayPath(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	w := shapedWorkload("benzene")
	spec, _ := VariantByName("v5")
	plan := CompileWorkload(w, spec, Options{Nodes: 1})
	var cBytes uint64
	for _, ref := range w.UniqueBlocks(tce.TensorC) {
		cBytes += uint64(ref.Bytes())
	}
	cfg := ExecConfig{Workers: 1}
	warmAlloc := func(run func()) uint64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			run()
			var before, after stdruntime.MemStats
			stdruntime.ReadMemStats(&before)
			run()
			stdruntime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
			stdruntime.GC()
		}
		return least
	}
	exec := warmAlloc(func() {
		if _, err := plan.Execute(cfg); err != nil {
			t.Fatal(err)
		}
	})
	array := warmAlloc(func() { arrayEnergy(t, plan, cfg) })
	t.Logf("per job: Execute %.2f MB, Array path %.2f MB, output %.2f MB", float64(exec)/1e6, float64(array)/1e6, float64(cBytes)/1e6)
	if exec+cBytes > array {
		t.Errorf("Execute allocates %d B, the Array path %d B: want at least the output's %d B fewer", exec, array, cBytes)
	}
}

// TestExecuteLeavesNoTail splits a uracil-shaped v5 job at the end of
// runtime.Run. Execute has nothing left to do there — every block was
// folded by the WRITE that completed it — while the Array path still
// flushes the output and folds the energy on one goroutine.
func TestExecuteLeavesNoTail(t *testing.T) {
	if testing.Short() {
		t.Skip("uracil shape")
	}
	w := shapedWorkload("uracil")
	spec, _ := VariantByName("v5")
	plan := CompileWorkload(w, spec, Options{Nodes: 1})
	cfg := ExecConfig{Workers: 2}
	var folded, flushed []time.Duration
	for i := 0; i < 3; i++ {
		store := addInputs(ga.NewStore(1), w)
		fold := w.NewEnergyFold()
		store.CreateCounted(tce.TensorC, plan.counts(), fold.Put)
		if _, err := plan.runOn(store, cfg, false); err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		got, err := fold.Energy()
		folded = append(folded, time.Since(t0))
		if err != nil {
			t.Fatal(err)
		}

		plain := inputStore(w)
		if _, err := plan.runOn(plain, cfg, false); err != nil {
			t.Fatal(err)
		}
		t0 = time.Now()
		want := w.Energy(plain.Array(tce.TensorC))
		flushed = append(flushed, time.Since(t0))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("folded energy %x, Array path %x", got, want)
		}
	}
	slices.Sort(folded)
	slices.Sort(flushed)
	t.Logf("after runtime.Run: Execute %v, Array path %v (medians of 3)", folded[1], flushed[1])
	if folded[1] > 500*time.Microsecond {
		t.Errorf("Execute spends %v after the run, want under 0.5 ms", folded[1])
	}
}
