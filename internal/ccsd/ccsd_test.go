package ccsd

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"parsec/internal/cluster"
	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/sched"
	"parsec/internal/tce"
	"parsec/internal/trace"
)

func waterWorkload() *tce.Workload {
	return tce.Inspect(tce.T2_7(molecule.Water631G()), nil)
}

// execute runs one variant over an inspected workload with the default
// ExecConfig but for the worker count.
func execute(w *tce.Workload, spec VariantSpec, workers int) (RealResult, error) {
	return CompileWorkload(w, spec, Options{Nodes: 1}).Execute(ExecConfig{Workers: workers})
}

// TestAllVariantsMatchReference is experiment E5 (§IV-A): every
// algorithmic variant computes the same correlation energy as the serial
// reference to ~14 digits.
func TestAllVariantsMatchReference(t *testing.T) {
	w := waterWorkload()
	ref := ReferenceEnergy(w)
	if ref == 0 || math.IsNaN(ref) {
		t.Fatalf("degenerate reference energy %v", ref)
	}
	for _, spec := range Variants() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res, err := execute(w, spec, 4)
			if err != nil {
				t.Fatal(err)
			}
			if d := EnergyRelDiff(res.Energy, ref); d > EnergyTol {
				t.Errorf("%s energy %.15g differs from reference %.15g (rel %g)",
					spec.Name, res.Energy, ref, d)
			}
		})
	}
}

func TestVariantTaskCounts(t *testing.T) {
	w := waterWorkload()
	st := w.Stats()
	for _, spec := range Variants() {
		shape := spec.MustShape()
		g := BuildGraph(w, spec, Options{Nodes: 4})
		counts, _ := g.CountTasks()
		if counts["GEMM"] != st.Gemms {
			t.Errorf("%s: GEMM count %d, want %d", spec.Name, counts["GEMM"], st.Gemms)
		}
		if counts["READA"] != st.Gemms || counts["READB"] != st.Gemms {
			t.Errorf("%s: read counts %d/%d, want %d", spec.Name, counts["READA"], counts["READB"], st.Gemms)
		}
		if shape.SegHeight == 0 {
			if counts["DFILL"] != st.Chains {
				t.Errorf("v1: DFILL count %d, want %d (one per chain)", counts["DFILL"], st.Chains)
			}
			if counts["REDUCE"] != 0 {
				t.Errorf("v1: REDUCE count %d, want 0", counts["REDUCE"])
			}
		} else {
			if counts["DFILL"] != st.Gemms {
				t.Errorf("%s: DFILL count %d, want %d (one per GEMM)", spec.Name, counts["DFILL"], st.Gemms)
			}
			if counts["REDUCE"] == 0 {
				t.Errorf("%s: no REDUCE tasks", spec.Name)
			}
		}
		if shape.SortFission {
			if counts["SORT"] != st.Sorts {
				t.Errorf("%s: SORT count %d, want %d", spec.Name, counts["SORT"], st.Sorts)
			}
		} else if counts["SORT"] != st.Chains {
			t.Errorf("%s: SORT count %d, want %d", spec.Name, counts["SORT"], st.Chains)
		}
		if shape.WriteFission {
			if counts["WRITE"] != st.Sorts {
				t.Errorf("%s: WRITE count %d, want %d", spec.Name, counts["WRITE"], st.Sorts)
			}
		} else if counts["WRITE"] != st.Chains {
			t.Errorf("%s: WRITE count %d, want %d", spec.Name, counts["WRITE"], st.Chains)
		}
	}
}

// TestExecuteTable drives the one real-arithmetic path — CompileWorkload
// + Execute — over every ExecConfig and Options dial that changes how
// the work is scheduled or cut, on both kernels and all five variants:
// none of them may move the energy past EnergyTol, and a traced run
// records exactly one event per task.
func TestExecuteTable(t *testing.T) {
	sys := molecule.Water631G()
	straggler := func(worker int, _ ptg.TaskRef) time.Duration {
		if worker == 0 {
			return 5 * time.Microsecond
		}
		return 0
	}
	for _, k := range []*tce.Kernel{tce.T2_7(sys), tce.T1_2(sys)} {
		w := tce.Inspect(k, nil)
		ref := ReferenceEnergy(w)
		if ref == 0 || math.IsNaN(ref) {
			t.Fatalf("%s: degenerate reference energy %v", k.Name, ref)
		}
		for _, spec := range Variants() {
			for _, h := range []int{0, 1, 2, 3, 5} {
				plan := CompileWorkload(w, override(t, spec, h, 0), Options{Nodes: 1})
				for _, q := range []sched.QueueMode{sched.SharedQueue, sched.PerWorker, sched.PerWorkerSteal} {
					for _, traced := range []bool{false, true} {
						for _, delayed := range []bool{false, true} {
							cfg := ExecConfig{Workers: 4, Queue: q}
							if traced {
								cfg.Trace = trace.New()
							}
							if delayed {
								cfg.TaskDelay = straggler
							}
							name := fmt.Sprintf("%s/%s/h=%d/%v/trace=%v/delay=%v", k.Name, spec.Name, h, q, traced, delayed)
							res, err := plan.Execute(cfg)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if d := EnergyRelDiff(res.Energy, ref); d > EnergyTol {
								t.Errorf("%s: energy %.15g vs reference %.15g (rel %g)", name, res.Energy, ref, d)
							}
							if traced && cfg.Trace.Len() != res.Report.Tasks {
								t.Errorf("%s: trace has %d events, report %d tasks", name, cfg.Trace.Len(), res.Report.Tasks)
							}
						}
					}
				}
			}
		}
	}
}

func TestChainPlanShapes(t *testing.T) {
	meta := &tce.ChainMeta{Gemms: make([]tce.GemmMeta, 7)}
	p := newChainPlan(meta, 1, 2)
	if p.m != 7 || p.top != 3 {
		t.Errorf("h=1: m=%d top=%d, want 7, 3", p.m, p.top)
	}
	if got := p.width; got[0] != 7 || got[1] != 4 || got[2] != 2 || got[3] != 1 {
		t.Errorf("width = %v", got)
	}
	p = newChainPlan(meta, 7, 2)
	if p.m != 1 || p.top != 0 {
		t.Errorf("h=n: m=%d top=%d, want 1, 0", p.m, p.top)
	}
	p = newChainPlan(meta, 3, 2)
	if p.m != 3 || p.segLast(0) != 2 || p.segLast(2) != 6 {
		t.Errorf("h=3: m=%d lasts=%d,%d", p.m, p.segLast(0), p.segLast(2))
	}
	if !p.isSegEnd(6) || p.isSegEnd(3) {
		t.Error("isSegEnd wrong")
	}
	// Height clamped to n.
	p = newChainPlan(meta, 100, 2)
	if p.h != 7 {
		t.Errorf("h clamped to %d", p.h)
	}
}

func TestVariantByName(t *testing.T) {
	for _, name := range []string{"v1", "v2", "v3", "v4", "v5"} {
		v, err := VariantByName(name)
		if err != nil || v.Name != name {
			t.Errorf("VariantByName(%q) = %v, %v", name, v, err)
		}
	}
	if _, err := VariantByName("v9"); err == nil {
		t.Error("unknown variant accepted")
	}
	if (VariantSpec{Name: "x", Description: "y"}).String() != "x: y" {
		t.Error("String format")
	}
}

func TestGraphsValidateForAllVariants(t *testing.T) {
	w := waterWorkload()
	for _, spec := range Variants() {
		g := BuildGraph(w, spec, Options{Nodes: 3})
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
		if _, err := ptg.NewTracker(g); err != nil {
			t.Errorf("%s tracker: %v", spec.Name, err)
		}
	}
}

func simConfig(nodes, cores int) cluster.Config {
	cfg := cluster.CascadeLike()
	cfg.Nodes = nodes
	cfg.CoresPerNode = cores
	return cfg
}

func TestSimAllVariantsComplete(t *testing.T) {
	sys := molecule.Water631G()
	for _, spec := range Variants() {
		res, err := RunSim(sys, spec, simConfig(4, 4), SimRunConfig{CoresPerNode: 2})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if res.Makespan <= 0 {
			t.Errorf("%s: zero makespan", spec.Name)
		}
		if res.ByClass["GEMM"] == 0 || res.ByClass["WRITE"] == 0 {
			t.Errorf("%s: missing classes: %v", spec.Name, res.ByClass)
		}
	}
}

func TestSimTraceWellFormed(t *testing.T) {
	sys := molecule.Water631G()
	tr := trace.New()
	spec, _ := VariantByName("v4")
	if _, err := RunSim(sys, spec, simConfig(4, 4), SimRunConfig{CoresPerNode: 3, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	if tr.Len() == 0 {
		t.Error("empty trace")
	}
}

// TestSimBaselineCompletes runs the CGP baseline on four nodes and on
// one: a one-node inspection has no locator (owners read -1), which the
// baseline must take as node 0 like the PTG builders do.
func TestSimBaselineCompletes(t *testing.T) {
	sys := molecule.Water631G()
	for _, nodes := range []int{4, 1} {
		res, err := RunSimBaseline(sys, simConfig(nodes, 4), SimRunConfig{CoresPerNode: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan <= 0 || res.Gets == 0 || res.Adds == 0 {
			t.Errorf("%d nodes: degenerate baseline run: %v", nodes, res)
		}
	}
}

func TestSimMoreCoresHelpParallelVariant(t *testing.T) {
	sys := molecule.Benzene631G()
	spec, _ := VariantByName("v5")
	r1, err := RunSim(sys, spec, simConfig(4, 8), SimRunConfig{CoresPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunSim(sys, spec, simConfig(4, 8), SimRunConfig{CoresPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r4.Makespan >= r1.Makespan {
		t.Errorf("v5 with 4 cores (%v) not faster than 1 core (%v)", r4.Makespan, r1.Makespan)
	}
}

// TestPriorityPipeline is experiment E7: the §IV-C priority expressions
// give read tasks a +5P offset and GEMMs +1P, so at least 4P chains'
// worth of reads outrank the most urgent GEMM — the depth-5P data
// prefetch pipeline.
func TestPriorityPipeline(t *testing.T) {
	const nodes = 4
	w := waterWorkload()
	spec, _ := VariantByName("v4")
	g := BuildGraph(w, spec, Options{Nodes: nodes})
	read := g.ClassByName("READA")
	gemm := g.ClassByName("GEMM")
	sort := g.ClassByName("SORT")
	a := ptg.A2(3, 0)
	if got := read.Priority(a) - gemm.Priority(a); got != 4*nodes {
		t.Errorf("read-gemm priority gap = %d, want %d", got, 4*nodes)
	}
	if got := gemm.Priority(a) - sort.Priority(a); got != nodes {
		t.Errorf("gemm-sort priority gap = %d, want %d", got, nodes)
	}
	// Priorities decrease with the chain number.
	if read.Priority(ptg.A2(0, 0)) <= read.Priority(ptg.A2(5, 0)) {
		t.Error("priority not decreasing with chain number")
	}
	// v2 disables priorities entirely.
	v2, _ := VariantByName("v2")
	g2 := BuildGraph(w, v2, Options{Nodes: nodes})
	if g2.ClassByName("GEMM").Priority != nil {
		t.Error("v2 has priorities")
	}
}

// TestDTDMatchesReference runs the kernel through the Dynamic Task
// Discovery frontend (§VI's alternative model) and checks it reproduces
// the reference energy, for both kernels.
func TestDTDMatchesReference(t *testing.T) {
	for _, k := range []string{"t2_7", "t1_2"} {
		sys := molecule.Water631G()
		kr, err := tce.KernelByName(k, sys)
		if err != nil {
			t.Fatal(err)
		}
		w := tce.Inspect(kr, nil)
		ref := ReferenceEnergy(w)
		v1, _ := VariantByName("v1")
		got, err := RunDTD(w, v1, 4)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if d := EnergyRelDiff(got, ref); d > EnergyTol {
			t.Errorf("%s: DTD energy %.15g vs reference %.15g", k, got, ref)
		}
	}
}

// TestDTDBuildsDAGInMemory verifies the structural contrast §VI draws:
// the DTD engine materializes one edge per discovered dependency, while
// the PTG needs none before execution.
func TestDTDBuildsDAGInMemory(t *testing.T) {
	w := waterWorkload()
	v1, _ := VariantByName("v1")
	e, _, err := BuildDTD(w, v1, false)
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	// Each chain contributes: DFILL->GEMM0, GEMM i->i+1 (serial RW), and
	// one edge per sort; GEMM input reads add no edges (blocks have no
	// writer). So edges = gemms + sorts per chain arithmetic.
	wantMin := st.Gemms // every GEMM depends on its predecessor or DFILL
	if e.NumEdges() < wantMin {
		t.Errorf("edges = %d, want >= %d", e.NumEdges(), wantMin)
	}
	if e.NumTasks() != st.Chains+st.Gemms+st.Sorts {
		t.Errorf("tasks = %d, want %d", e.NumTasks(), st.Chains+st.Gemms+st.Sorts)
	}
}

// TestPropertyVariantsMatchReferenceOnRandomSystems drives the whole
// pipeline — tiling, symmetry filtering, inspection, graph construction,
// parallel execution — on randomized orbital spaces and checks the §IV-A
// equivalence against the serial reference every time.
func TestPropertyVariantsMatchReferenceOnRandomSystems(t *testing.T) {
	f := func(occ, virt, tile, irr uint8, seed uint64) bool {
		nOcc := int(occ%5) + 2
		nVirt := int(virt%6) + 3
		target := int(tile%3) + 2
		nIrr := []int{1, 2, 4}[int(irr)%3]
		sys := molecule.Custom("prop", nOcc, nVirt, target, nIrr, seed)
		w := tce.Inspect(tce.T2_7(sys), nil)
		if w.NumChains() == 0 {
			return true // fully symmetry-forbidden space
		}
		ref := ReferenceEnergy(w)
		for _, name := range []string{"v1", "v5"} {
			spec, _ := VariantByName(name)
			res, err := execute(w, spec, 3)
			if err != nil {
				t.Logf("%s on %v: %v", name, sys, err)
				return false
			}
			if EnergyRelDiff(res.Energy, ref) > 1e-11 {
				t.Logf("%s energy %.15g vs %.15g on %v", name, res.Energy, ref, sys)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSimQueueModesSameTaskCounts: the scheduler structure must not
// change what executes.
func TestSimQueueModesSameTaskCounts(t *testing.T) {
	sys := molecule.Water631G()
	spec, _ := VariantByName("v4")
	var counts []int
	for _, q := range []sched.QueueMode{sched.SharedQueue, sched.PerWorker, sched.PerWorkerSteal} {
		res, err := RunSim(sys, spec, simConfig(4, 4), SimRunConfig{CoresPerNode: 3, Queues: q})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Tasks)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("task counts differ across queue modes: %v", counts)
	}
}

// TestSimT1Kernel runs the T1 kernel through the simulator.
func TestSimT1Kernel(t *testing.T) {
	sys := molecule.Water631G()
	spec, _ := VariantByName("v5")
	res, err := RunSim(sys, spec, simConfig(4, 4), SimRunConfig{CoresPerNode: 2, Kernel: "t1_2"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || res.ByClass["GEMM"] == 0 {
		t.Errorf("degenerate T1 sim: %v", res)
	}
	if _, err := RunSim(sys, spec, simConfig(4, 4), SimRunConfig{CoresPerNode: 2, Kernel: "bogus"}); err == nil {
		t.Error("bogus kernel accepted")
	}
}

// TestFusedEnergyMatchesReference: the fused kernel+energy graph (§III-B
// future-work integration) computes the same scalar as the staged
// reference path.
func TestFusedEnergyMatchesReference(t *testing.T) {
	w := waterWorkload()
	ref := ReferenceEnergy(w)
	got, err := RunRealFused(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := EnergyRelDiff(got, ref); d > EnergyTol {
		t.Errorf("fused energy %.15g vs reference %.15g", got, ref)
	}
}

// TestSimFusionBeatsStaged: fusing the subroutines must remove the GA
// round trip, so the fused makespan is below kernel+energy staged.
func TestSimFusionBeatsStaged(t *testing.T) {
	res, err := RunSimFusion(molecule.Benzene631G(), simConfig(8, 8), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fused <= 0 || res.Staged <= 0 {
		t.Fatalf("degenerate: %v", res)
	}
	if res.Fused >= res.Staged {
		t.Errorf("fused (%v) not faster than staged (%v)", res.Fused, res.Staged)
	}
	if res.String() == "" {
		t.Error("empty string")
	}
}

func TestTreeShape(t *testing.T) {
	ts := newTreeShape(1)
	if ts.top != 0 || len(ts.width) != 1 {
		t.Errorf("m=1: %+v", ts)
	}
	ts = newTreeShape(5)
	if ts.top != 3 || ts.width[1] != 3 || ts.width[2] != 2 || ts.width[3] != 1 {
		t.Errorf("m=5: %+v", ts)
	}
}

// TestSegmentedWritesMatchReference is the Fig 8 experiment: with output
// blocks spanning several nodes, one WRITE_C instance per segment updates
// only its slice — and the result is unchanged.
func TestSegmentedWritesMatchReference(t *testing.T) {
	w := waterWorkload()
	ref := ReferenceEnergy(w)
	for _, name := range []string{"v4", "v5"} {
		spec, _ := VariantByName(name)
		for _, span := range []int{2, 3} {
			res, err := execute(w, override(t, spec, 0, span), 4)
			if err != nil {
				t.Fatalf("%s span %d: %v", name, span, err)
			}
			if d := EnergyRelDiff(res.Energy, ref); d > EnergyTol {
				t.Errorf("%s span %d: energy %.15g vs %.15g", name, span, res.Energy, ref)
			}
		}
	}
}

// TestSimSegmentedWrites: the simulated run completes with spanning
// blocks and produces span WRITE instances per chain.
func TestSimSegmentedWrites(t *testing.T) {
	sys := molecule.Water631G()
	spec, _ := VariantByName("v5")
	res, err := RunSim(sys, override(t, spec, 0, 3), simConfig(4, 4), SimRunConfig{CoresPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := tce.Inspect(tce.T2_7(sys), nil)
	if res.ByClass["WRITE"] != 3*w.NumChains() {
		t.Errorf("WRITE instances = %d, want %d", res.ByClass["WRITE"], 3*w.NumChains())
	}
}

// TestInBytesSplitsTransfers: a spanning write's deliveries carry only
// the per-segment slice size.
func TestInBytesSplitsTransfers(t *testing.T) {
	w := waterWorkload()
	spec, _ := VariantByName("v5")
	g := BuildGraph(w, override(t, spec, 0, 2), Options{Nodes: 4})
	tr, err := ptg.NewTracker(g)
	if err != nil {
		t.Fatal(err)
	}
	// Drive to completion, checking WRITE-bound delivery sizes.
	queue := append([]*ptg.Instance(nil), tr.InitialReady()...)
	checked := false
	for len(queue) > 0 {
		in := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		tr.Start(in)
		dels, _, err := tr.Complete(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dels {
			if d.To.Ref.Class == "WRITE" {
				full := w.Chains[d.To.Ref.Args[0]].CBytes()
				want := (full + 1) / 2
				if d.Bytes != want {
					t.Fatalf("WRITE delivery %d bytes, want %d (half of %d)", d.Bytes, want, full)
				}
				checked = true
			}
			if ok, err := tr.Deliver(d.To, d.ToFlow, nil); err != nil {
				t.Fatal(err)
			} else if ok {
				queue = append(queue, d.To)
			}
		}
	}
	if !checked {
		t.Fatal("no WRITE deliveries observed")
	}
}

// TestConcurrentExecutesShareOneSkeleton runs 8 Executes of a fresh plan
// at once: the first to bind resolves the skeleton under the plan's
// sync.Once and all eight drive trackers copied from it. Every energy
// must be the same bits and within 1e-12 of the serial reference (run
// with -race, this is also the check that the shared skeleton is only
// read).
func TestConcurrentExecutesShareOneSkeleton(t *testing.T) {
	spec, err := VariantByName("v5")
	if err != nil {
		t.Fatal(err)
	}
	plan := Compile(molecule.Water631G(), spec, Options{Nodes: 1})
	const jobs = 8
	energies := make([]float64, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			res, err := plan.Execute(ExecConfig{Workers: 2})
			energies[j], errs[j] = res.Energy, err
		}(j)
	}
	wg.Wait()
	ref := ReferenceEnergy(plan.Workload)
	for j := range energies {
		if errs[j] != nil {
			t.Fatalf("job %d: %v", j, errs[j])
		}
		if math.Float64bits(energies[j]) != math.Float64bits(energies[0]) {
			t.Errorf("job %d: energy %.17g differs from job 0's %.17g", j, energies[j], energies[0])
		}
	}
	if d := EnergyRelDiff(energies[0], ref); d > EnergyTol {
		t.Errorf("energy %.15g vs reference %.15g (rel %g)", energies[0], ref, d)
	}
}

// TestSkeletonSizeBudget pins what a cached plan keeps resident for its
// task graph: at most 64 bytes per instance, edges included, on the
// water preset and on the benchmark's dispatch-bound shape (12/24
// orbitals tiled at 4). The service caches up to 32 plans; at 220 bytes
// per instance its resident set grew by half.
func TestSkeletonSizeBudget(t *testing.T) {
	spec, err := VariantByName("v5")
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*molecule.System{
		molecule.Water631G(),
		molecule.Custom("dispatch", 12, 24, 4, 2, 1),
	} {
		sk, err := ptg.NewSkeleton(Compile(sys, spec, Options{Nodes: 1}).NewGraph(nil))
		if err != nil {
			t.Fatal(err)
		}
		per := float64(sk.Bytes()) / float64(sk.NumInstances())
		t.Logf("%s: %d instances, %d bytes, %.1f B/instance", sys.Name, sk.NumInstances(), sk.Bytes(), per)
		if per > 64 {
			t.Errorf("%s: skeleton is %.1f bytes per instance, budget 64", sys.Name, per)
		}
	}
}
