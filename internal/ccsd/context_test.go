package ccsd

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	stdruntime "runtime"
	"runtime/debug"
	"slices"
	"sync"
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

// dropContexts empties the free list, so the next run starts on a new
// context.
func dropContexts() {
	contexts.mu.Lock()
	contexts.free = nil
	contexts.mu.Unlock()
}

// TestWarmExecuteAllocatesAThird pins what the execution context saves
// a job: a profiled water v5 run on a context that has just served a
// water v1 plan — another shape, so another graph and another store
// layout — allocates at most a third of the bytes of the same run on a
// new context. Both sides include the profile and the report's copy of
// the spans, which are the caller's; the plans' skeletons are resolved
// before either is measured. Medians of five.
func TestWarmExecuteAllocatesAThird(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	plan := func(name string) *CompiledPlan {
		spec, err := VariantByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := Compile(molecule.Water631G(), spec, Options{Nodes: 1})
		if _, err := p.NumTasks(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	v5, v1 := plan("v5"), plan("v1")
	cfg := ExecConfig{Workers: 2}
	profiled := func(p *CompiledPlan) uint64 {
		var before, after stdruntime.MemStats
		stdruntime.ReadMemStats(&before)
		if _, _, err := p.ExecuteProfiled("pin", cfg); err != nil {
			t.Fatal(err)
		}
		stdruntime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var cold, warm []uint64
	for i := 0; i < 5; i++ {
		dropContexts()
		cold = append(cold, profiled(v5))
		profiled(v1)
		warm = append(warm, profiled(v5))
	}
	slices.Sort(cold)
	slices.Sort(warm)
	t.Logf("water v5, profiled: %d B on a new context, %d B on one that served v1 (medians of 5)", cold[2], warm[2])
	if 3*warm[2] > cold[2] {
		t.Errorf("a warm run allocates %d B, a cold one %d B: want at most a third", warm[2], cold[2])
	}
}

// TestContextsCarryNothingBetweenRuns is the stress test of the
// execution contexts. Four goroutines share the free list, alternating
// water v5, a benzene-shaped v5 and water v1 — two shapes, so contexts
// rebuild or re-aim their graph, and two sizes, so slabs and tiles are
// reused across plans — through Execute and ExecuteProfiled at one to
// three workers. Every tenth run is canceled mid-flight; now and then a
// goroutine runs a plan whose count of one output block is off by one
// on a context of its own and then every plan on that same context.
// Every energy that comes back is bitwise its plan's serial reference,
// and every profile counts the plan's tasks: a failed, canceled or
// foreign run leaves nothing behind.
func TestContextsCarryNothingBetweenRuns(t *testing.T) {
	type subject struct {
		plan  *CompiledPlan
		tasks int
		want  uint64 // energy bits of a one-worker run outside the free list
	}
	var subjects []subject
	for _, s := range []struct {
		w       *tce.Workload
		variant string
	}{{waterWorkload(), "v5"}, {shapedWorkload("benzene"), "v5"}, {waterWorkload(), "v1"}} {
		spec, err := VariantByName(s.variant)
		if err != nil {
			t.Fatal(err)
		}
		p := CompileWorkload(s.w, spec, Options{Nodes: 1})
		n, err := p.NumTasks()
		if err != nil {
			t.Fatal(err)
		}
		store := addInputs(ga.NewStore(1), s.w)
		fold := p.CreateOutput(store)
		if _, err := p.runOn(store, ExecConfig{Workers: 1}, false); err != nil {
			t.Fatal(err)
		}
		e, err := fold.Energy()
		if err != nil {
			t.Fatal(err)
		}
		if d := EnergyRelDiff(e, ReferenceEnergy(s.w)); d > EnergyTol {
			t.Fatalf("%s %s: serial run off the reference by %g", s.w.Kernel.Sys.Name, s.variant, d)
		}
		subjects = append(subjects, subject{p, n, math.Float64bits(e)})
	}
	// miscounted returns a copy of p whose WRITEs fall one short of, or
	// one past, the count of an output block.
	miscounted := func(p *CompiledPlan, delta int) *CompiledPlan {
		bad := CompileWorkload(p.Workload, p.Spec, Options{Nodes: 1})
		counts := writeCounts(bad.ps, bad.Shape)
		counts[p.ps[0].meta.Out.Key] += delta
		bad.countsOnce.Do(func() { bad.outCounts = ga.NewCounts(counts) })
		return bad
	}

	dropContexts()
	const goroutines, runs = 4, 12
	var canceled, completed atomic.Int32
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*runs*(len(subjects)+2)) // room for every error a run can send
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				n := g*runs + i
				s := subjects[n%len(subjects)]
				cfg := ExecConfig{Workers: 1 + n%3}
				if n%10 == 9 {
					cancel := make(chan struct{})
					var started atomic.Int32
					cfg.Cancel = cancel
					cfg.TaskDelay = func(int, ptg.TaskRef) time.Duration {
						if started.Add(1) == int32(s.tasks/3) {
							close(cancel)
							return time.Millisecond
						}
						return 0
					}
				}
				if n%7 == 3 {
					// A count moved by ±1 fails the run, on this context,
					// and the runs after it on the same context — every
					// plan in turn, so that one of them re-aims the graph
					// at another plan of its shape — are bitwise all the
					// same.
					c := takeContext(s.plan)
					_, err := c.execute(miscounted(s.plan, 1-2*(n%2)), ExecConfig{Workers: 2}, n%2 == 0)
					if err == nil {
						errs <- fmt.Errorf("run %d: a miscounted plan returned an energy", n)
					}
					for k := range subjects {
						next := subjects[(n+k)%len(subjects)]
						res, err := c.execute(next.plan, ExecConfig{Workers: 1 + k}, k == 1)
						if err != nil || math.Float64bits(res.Energy) != next.want {
							errs <- fmt.Errorf("run %d, %d after a miscounted one on its context: energy %x, error %v; want %x", n, k+1, math.Float64bits(res.Energy), err, next.want)
						}
					}
					giveContext(c)
					continue
				}
				var res RealResult
				var err error
				if n%2 == 0 {
					res, err = s.plan.Execute(cfg)
				} else {
					r, p, e := s.plan.ExecuteProfiled("stress", cfg)
					res, err = r, e
					if e == nil && p.Tasks != int64(s.tasks) {
						errs <- fmt.Errorf("run %d: profile of %d tasks, the plan has %d", n, p.Tasks, s.tasks)
					}
				}
				switch {
				case errors.Is(err, runtime.ErrCanceled):
					canceled.Add(1)
				case err != nil:
					errs <- fmt.Errorf("run %d: %v", n, err)
				case math.Float64bits(res.Energy) != s.want || res.Report.Tasks != s.tasks:
					errs <- fmt.Errorf("run %d: energy %x over %d tasks, want %x over %d", n, math.Float64bits(res.Energy), res.Report.Tasks, s.want, s.tasks)
				default:
					completed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	contexts.mu.Lock()
	free := len(contexts.free)
	contexts.mu.Unlock()
	t.Logf("%d runs completed, %d canceled; %d contexts on the free list", completed.Load(), canceled.Load(), free)
	if canceled.Load() == 0 {
		t.Error("no run was canceled mid-flight")
	}
	if free > goroutines {
		t.Errorf("%d contexts on the free list after %d goroutines ran", free, goroutines)
	}
}

// fissionedPlan compiles water v1, whose four SORTs per chain share the
// chain's final C tile.
func fissionedPlan(t *testing.T) *CompiledPlan {
	t.Helper()
	spec, err := VariantByName("v1")
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(molecule.Water631G(), spec, Options{Nodes: 1})
	if !p.Shape.SortFission {
		t.Fatal("v1 no longer fissions its SORT")
	}
	if _, err := p.NumTasks(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWarmFissionedRunAllocatesNoCTile: the last SORT of each chain
// gives the chain's final C back to the pool, so a warm water v1 run
// draws every C tile from the tiles of the run before it. With the
// collector off — it empties the pools — the best of three warm runs
// allocates no object in the heap size classes of the C tiles.
func TestWarmFissionedRunAllocatesNoCTile(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation drops sync.Pool items at random")
	}
	p := fissionedPlan(t)
	classes := make(map[uint32]bool)
	for _, c := range p.ps {
		elems := max(int(c.meta.Out.Elems()), 256) // the pool's smallest class
		size := uint32(8) << bits.Len(uint(elems-1))
		classes[size] = true
	}
	cfg := ExecConfig{Workers: 2}
	for i := 0; i < 2; i++ {
		if _, err := p.Execute(cfg); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after stdruntime.MemStats
		stdruntime.ReadMemStats(&before)
		if _, err := p.Execute(cfg); err != nil {
			t.Fatal(err)
		}
		stdruntime.ReadMemStats(&after)
		var n uint64
		for k, c := range before.BySize {
			if classes[c.Size] {
				n += after.BySize[k].Mallocs - c.Mallocs
			}
		}
		best = min(best, n)
	}
	if best != 0 {
		t.Errorf("a warm v1 run allocates %d objects of the C tiles' size classes %v, want 0", best, classes)
	}
}

// TestCanceledSortLeavesNoCount cancels a water v1 run while a chain is
// between its SORTs, then runs the plan in full on the same context:
// the run must re-arm every chain's count, or the half-spent chain
// gives its C back while two of its SORTs still have to read it. The
// full run's energy is bitwise that of a run on a new context.
func TestCanceledSortLeavesNoCount(t *testing.T) {
	p := fissionedPlan(t)
	cfg := ExecConfig{Workers: 1}
	fresh := &execCtx{store: ga.NewStore(1)}
	fresh.put = func(key tensor.BlockKey, tile *tensor.Tile4) { fresh.fold.Put(key, tile) }
	want, err := fresh.execute(p, cfg, false)
	if err != nil {
		t.Fatal(err)
	}

	c := &execCtx{store: ga.NewStore(1)}
	c.put = func(key tensor.BlockKey, tile *tensor.Tile4) { c.fold.Put(key, tile) }
	cancel := make(chan struct{})
	chain := -1
	canceled := cfg
	canceled.Cancel = cancel
	canceled.TaskDelay = func(_ int, ref ptg.TaskRef) time.Duration {
		if chain < 0 && ref.Class == "SORT" && ref.Args[1] == 1 {
			chain = ref.Args[0]
			close(cancel)
			// Time for the executor to see the cancel, which it does
			// after this SORT's body.
			return 50 * time.Millisecond
		}
		return 0
	}
	if _, err := c.execute(p, canceled, false); !errors.Is(err, runtime.ErrCanceled) {
		t.Fatalf("canceled run returned %v", err)
	}
	if left := c.b.sortsLeft[chain].Load(); left <= 0 || int(left) >= p.ps[chain].nsorts {
		t.Fatalf("chain %d has %d of %d SORTs left: the run was not canceled between them", chain, left, p.ps[chain].nsorts)
	}
	got, err := c.execute(p, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Energy) != math.Float64bits(want.Energy) {
		t.Errorf("energy %.17g after a canceled run, %.17g on a new context", got.Energy, want.Energy)
	}
}

// TestRecycledTilesKeepEnergies is the stress test of the output path's
// tile recycling: a SORT draws its output from the tile pool, the
// counted output array gives it back once its block is folded
// (ga.Store.AccOrdered), and the energy fold gives back the block
// (tce.EnergyFold). Every recipe shape whose WRITEs share a SORT tile —
// a write span over one block, with sort fission and without — runs
// warm again and again on one execution context, as do write fission
// and the merged SORT whose tile a block adopts, with water v1 run on
// the same context between any two runs; every energy is bitwise its
// plan's first. A tile given back while a WRITE still holds it, or
// given back twice, is drawn again under the WRITE and moves an energy
// or, under -race, races.
func TestRecycledTilesKeepEnergies(t *testing.T) {
	w := waterWorkload()
	compile := func(name string) *CompiledPlan {
		spec, err := VariantByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return CompileWorkload(w, spec, Options{Nodes: 1})
	}
	other := compile("v1")
	var otherBits uint64
	dropContexts()
	for _, name := range []string{"fission=none,span=2", "fission=sorts,span=2", "seg=2,fission=none,span=3", "seg=2,fission=sorts,span=3", "fission=writes", "v5"} {
		plan := compile(name)
		var first uint64
		for i := 0; i < 6; i++ {
			for _, p := range []*CompiledPlan{plan, other} {
				res, err := p.Execute(ExecConfig{Workers: 1 + i%3})
				if err != nil {
					t.Fatalf("%s, run %d: %v", p.Spec.Name, i, err)
				}
				bits := math.Float64bits(res.Energy)
				want := &first
				if p == other {
					want = &otherBits
				}
				if *want == 0 {
					*want = bits
					if d := EnergyRelDiff(res.Energy, ReferenceEnergy(w)); d > EnergyTol {
						t.Fatalf("%s: first run off the reference by %g", p.Spec.Name, d)
					}
				} else if bits != *want {
					t.Errorf("%s, run %d: energy %x, first run %x", p.Spec.Name, i, bits, *want)
				}
			}
		}
	}
	contexts.mu.Lock()
	n := len(contexts.free)
	contexts.mu.Unlock()
	if n != 1 {
		t.Errorf("the runs took %d contexts, want one", n)
	}
}

// TestWarmExecuteAllocationsDoNotGrowWithTasks pins what a warm v5
// Execute allocates: a few objects of the run's own (the runtime's
// report, the energy fold), the same for water (1,216 tasks) and the
// dispatch-shaped system (28,304), not one per SORT or WRITE — a SORT's
// output comes from the tile pool and goes back to it, and the counted
// output array buffers a contribution in place.
func TestWarmExecuteAllocationsDoNotGrowWithTasks(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	spec, err := VariantByName("v5")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 20
	for _, sys := range []*molecule.System{molecule.Water631G(), molecule.Custom("dispatch-shaped", 12, 24, 4, 2, 0x5eed)} {
		p := Compile(sys, spec, Options{Nodes: 1})
		tasks, err := p.NumTasks()
		if err != nil {
			t.Fatal(err)
		}
		cfg := ExecConfig{Workers: 2}
		dropContexts()
		for i := 0; i < 3; i++ {
			if _, err := p.Execute(cfg); err != nil {
				t.Fatal(err)
			}
		}
		gc := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := p.Execute(cfg); err != nil {
				t.Fatal(err)
			}
		})
		debug.SetGCPercent(gc)
		t.Logf("%s v5: %.0f allocations per warm Execute of %d tasks", sys.Name, allocs, tasks)
		if allocs > budget {
			t.Errorf("%s v5: %.0f allocations per warm Execute of %d tasks, want at most %d", sys.Name, allocs, tasks, budget)
		}
	}
}
