package main

import (
	"sync"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/ga"
	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/sched"
	"parsec/internal/tce"
)

// execInst is a workload on the shared-memory goroutine runtime: one
// job is one CompiledPlan.Execute of the generated problem.
type execInst struct {
	p       problem
	workers int
	// dispatchProbes adds the synthetic empty-task and granularity
	// probes: they predict the dispatch-bound workload, so only it pays
	// for them.
	dispatchProbes bool

	mu      sync.Mutex
	reports map[int]runtime.Report // of the traced jobs, by job index
}

// setupExec generates the problem and runs one verified warm-up job, so
// pools are primed and the first timed job is not the first ever run.
func setupExec(shape sysShape, dispatchProbes bool) func(env setupEnv) (instance, error) {
	return func(env setupEnv) (instance, error) {
		p, err := newProblem(shape, env.seed)
		if err != nil {
			return nil, err
		}
		x := &execInst{p: p, workers: 2, dispatchProbes: dispatchProbes, reports: make(map[int]runtime.Report)}
		if _, err := x.job(0, 0, nil); err != nil {
			return nil, err
		}
		return x, nil
	}
}

func (x *execInst) close() {}

// job runs the plan once and checks its energy. Untraced, that is the
// single public call a user makes. Traced, the harness makes the same
// calls Execute makes — create and fill a store, bind the graph, run it,
// reduce the energy — with a span around each layer's public function.
func (x *execInst) job(i, client int, tr *tracer) (int, error) {
	plan := x.p.plan
	if tr == nil {
		res, err := plan.Execute(ccsd.ExecConfig{Workers: x.workers})
		if err != nil {
			return 0, err
		}
		return res.Report.Tasks, x.p.check(res.Energy)
	}

	root := tr.begin("job", i, client, 0)
	defer tr.end(root)
	w := plan.Workload

	s := tr.begin("tce.fill", i, client, root)
	store := ga.NewStore(1)
	aName, bName := w.InputTensors()
	a, b := store.Create(aName), store.Create(bName)
	store.Create(tce.TensorC)
	for _, ref := range w.UniqueBlocks(aName) {
		w.FillBlock(ref, a.GetOrCreate(ref.Key, ref.Dims))
	}
	for _, ref := range w.UniqueBlocks(bName) {
		w.FillBlock(ref, b.GetOrCreate(ref.Key, ref.Dims))
	}
	tr.end(s)

	s = tr.begin("ccsd.bind", i, client, root)
	g := plan.NewGraph(store)
	tr.end(s)

	policy := sched.PriorityOrder
	if !plan.Spec.UsePriorities() {
		policy = sched.LIFOOrder
	}
	s = tr.begin("runtime.run", i, client, root)
	rep, err := runtime.Run(g, runtime.Config{Workers: x.workers, Policy: policy})
	tr.end(s)
	if err != nil {
		return 0, err
	}

	s = tr.begin("tce.energy", i, client, root)
	energy := w.Energy(store.Array(tce.TensorC))
	tr.end(s)

	x.mu.Lock()
	x.reports[i] = rep
	x.mu.Unlock()
	return rep.Tasks, x.p.check(energy)
}

// layers reports the layers an in-process job crosses: tce, ccsd, ptg,
// runtime/sched, tensor and ga.
func (x *execInst) layers(lc *layerCtx) error {
	m, plan, w := lc.m, x.p.plan, x.p.plan.Workload
	perJob := func(name string) float64 { return lc.spans[name].perJob(lc.tracedJobs) }

	m.set("tce.inspect_s", plan.InspectTime.Seconds())
	m.set("tce.fill_s", perJob("tce.fill"))
	m.set("tce.energy_s", perJob("tce.energy"))
	m.set("tce.reference_s", x.p.refDur.Seconds())
	m.set("ccsd.compile_s", x.p.compileDur.Seconds())
	m.set("ccsd.bind_s", perJob("ccsd.bind"))
	m.set("ccsd.footprint_mb", float64(plan.FootprintBytes())/1e6)

	trackerS, instances, err := trackerBuildSeconds(func() *ptg.Graph { return plan.NewGraph(ga.NewStore(1)) }, lc.reps(3))
	if err != nil {
		return err
	}
	m.set("ptg.instances", float64(instances))
	m.set("ptg.tracker_build_s", trackerS)

	// runtime/sched: the counters of runtime.Report, averaged over the
	// traced jobs; run time is the span around runtime.Run.
	var n, busy, tasks, parks, wakes, steals, attempts, depth float64
	var byClass map[string]int
	for job, r := range x.reports {
		if !lc.quietJob[job] {
			continue
		}
		n++
		byClass = r.ByClass
		busy += r.BusyTime.Seconds()
		tasks += float64(r.Tasks)
		parks += float64(r.Sched.Parks)
		wakes += float64(r.Sched.Wakes)
		steals += float64(r.Sched.Steals)
		attempts += float64(r.Sched.StealAttempts)
		depth = max(depth, float64(r.Sched.MaxQueueDepth))
	}
	busy, tasks, parks, wakes = busy/n, tasks/n, parks/n, wakes/n
	runS := perJob("runtime.run")
	workers := float64(x.workers)
	m.set("runtime.run_s", runS)
	m.set("runtime.busy_s", busy)
	m.set("runtime.utilization", busy/(workers*runS))
	m.set("runtime.overhead_ns_per_task", (workers*runS-busy)*1e9/tasks)
	m.set("runtime.parks", parks)
	m.set("runtime.wakes", wakes)
	if attempts > 0 {
		m.set("runtime.steal_hit_ratio", steals/attempts)
	}
	m.set("runtime.max_queue_depth", depth)
	m.set("runtime.efficiency_vs_serial", x.p.refDur.Seconds()/(workers*lc.p50))

	var oneWorker []float64
	for r := 0; r < lc.reps(3); r++ {
		t0 := time.Now()
		res, err := plan.Execute(ccsd.ExecConfig{Workers: 1})
		if err != nil {
			return err
		}
		oneWorker = append(oneWorker, time.Since(t0).Seconds())
		if err := x.p.check(res.Energy); err != nil {
			return err
		}
	}
	m.set("runtime.speedup_2w", median(oneWorker)/lc.p50)

	if x.dispatchProbes {
		const fanout = 4096
		ns, allocs, err := emptyTaskProbe(sched.SharedQueue, x.workers, fanout, lc.reps(7))
		if err != nil {
			return err
		}
		m.set("runtime.empty_ns_per_task.shared", ns)
		m.set("runtime.empty_allocs_per_task", allocs)
		if ns, _, err = emptyTaskProbe(sched.PerWorkerSteal, x.workers, fanout, lc.reps(7)); err != nil {
			return err
		}
		m.set("runtime.empty_ns_per_task.steal", ns)
		metg, err := minEffectiveTaskNs(x.workers, lc.reps(3))
		if err != nil {
			return err
		}
		m.set("runtime.min_task_ns_50pct", metg)
	}

	// tensor: exact operation count, the rate the bodies achieved inside
	// the run, and the rate of the dominant shapes alone on one thread.
	flops := float64(w.Stats().TotalFlops)
	inSitu := flops / busy / 1e9
	gm, gn, gk := dominantGemm(w)
	isolated := gemmGflopsIsolated(gm, gn, gk, lc.probeBudget)
	dims, perm := dominantSort(w)
	m.set("tensor.flops_per_job", flops)
	m.set("tensor.gflops_in_situ", inSitu)
	m.set("tensor.gemm_gflops_isolated", isolated)
	m.set("tensor.sort4_gbps_isolated", sort4GbpsIsolated(dims, perm, lc.probeBudget))
	m.set("tensor.in_situ_over_isolated", inSitu/isolated)

	// ga: v5 accumulates once per chain (one WRITE each).
	m.set("ga.acc_ops_per_job", float64(byClass["WRITE"]))
	m.set("ga.acc_ns_per_op", accNsPerOp(w, lc.probeBudget))
	return nil
}
