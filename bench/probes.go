package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"parsec/internal/ga"
	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/sched"
	"parsec/internal/serve"
	"parsec/internal/tce"
	"parsec/internal/tensor"
)

// Isolated probes: small measurements of one layer through its public
// functions, outside any workload, so that a layer's cost is known on
// its own and can be set against what the traced run sees in situ.

// spinFor busy-waits for d without yielding the worker, standing in for
// a compute kernel of that length.
func spinFor(d time.Duration) {
	if d <= 0 {
		return
	}
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}

// fanoutGraph is one source task releasing n independent leaves whose
// bodies spin for the given time: with empty bodies its run time is
// tracker bookkeeping, queue traffic and park/unpark, nothing else.
func fanoutGraph(n int, spin time.Duration) *ptg.Graph {
	g := ptg.NewGraph("bench-fanout")
	src := g.Class("SRC")
	src.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)) }
	f := src.AddFlow("D", ptg.Write)
	f.InNew(nil, func(ptg.Args) int64 { return 8 })
	for i := 0; i < n; i++ {
		i := i
		f.Out(nil, func(ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "LEAF", Args: ptg.A1(i)}, "D"
		})
	}
	src.Body = func(ctx *ptg.Ctx) { ctx.Out[0] = 1 }
	leaf := g.Class("LEAF")
	leaf.Domain = func(emit func(ptg.Args)) {
		for i := 0; i < n; i++ {
			emit(ptg.A1(i))
		}
	}
	leaf.AddFlow("D", ptg.Read).In(nil, func(ptg.Args) (ptg.TaskRef, string) {
		return ptg.TaskRef{Class: "SRC", Args: ptg.A1(0)}, "D"
	})
	leaf.Body = func(*ptg.Ctx) { spinFor(spin) }
	return g
}

// fanoutWall runs the fan-out reps times and returns the median wall
// time of runtime.Run.
func fanoutWall(n int, spin time.Duration, q sched.QueueMode, workers, reps int) (float64, error) {
	g := fanoutGraph(n, spin)
	var walls []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		rep, err := runtime.Run(g, runtime.Config{Workers: workers, Queues: q})
		if err != nil {
			return 0, fmt.Errorf("fan-out probe: %w", err)
		}
		if rep.Tasks != n+1 {
			return 0, fmt.Errorf("fan-out probe: ran %d tasks, want %d", rep.Tasks, n+1)
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return median(walls), nil
}

// emptyTaskProbe measures dispatch alone: wall nanoseconds and heap
// allocations per task of an empty-bodied fan-out.
func emptyTaskProbe(q sched.QueueMode, workers, n, reps int) (nsPerTask, allocsPerTask float64, err error) {
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	wall, err := fanoutWall(n, 0, q, workers, reps)
	goruntime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, err
	}
	tasks := float64(n + 1)
	return wall * 1e9 / tasks, float64(after.Mallocs-before.Mallocs) / (tasks * float64(reps)), nil
}

// minEffectiveTaskNs is task-bench's minimum effective task granularity
// (Slaughter et al., SC'20): the smallest task body at which the
// runtime still keeps its workers at least half busy with bodies,
// efficiency = tasks·body ÷ (workers·wall). Bodies double from 250 ns;
// the crossing is interpolated between the two bracketing sizes on a
// logarithmic body axis. A machine so loaded that even the largest body
// stays below the target reads as that body: the probe is a measurement,
// not a check, and does not fail the run.
func minEffectiveTaskNs(workers, reps int) (float64, error) {
	const (
		target  = 0.5
		largest = 2 * time.Millisecond
	)
	var prevNs, prevEff float64
	for body := 250 * time.Nanosecond; body <= largest; body *= 2 {
		// About 10 ms of body time per run, so large bodies stay cheap
		// and small ones still average over thousands of dispatches.
		n := min(max(int(10*time.Millisecond/body), 128), 4096)
		wall, err := fanoutWall(n, body, sched.SharedQueue, workers, reps)
		if err != nil {
			return 0, err
		}
		ns := float64(body.Nanoseconds())
		eff := float64(n) * body.Seconds() / (float64(workers) * wall)
		if eff >= target {
			if prevNs == 0 {
				return ns, nil
			}
			frac := (target - prevEff) / (eff - prevEff)
			return math.Exp(math.Log(prevNs) + frac*(math.Log(ns)-math.Log(prevNs))), nil
		}
		prevNs, prevEff = ns, eff
	}
	return prevNs, nil
}

// repeatFor calls f until budget has elapsed (at least once) and
// returns the mean seconds per call.
func repeatFor(budget time.Duration, f func()) float64 {
	t0 := time.Now()
	n := 0
	for {
		f()
		n++
		if el := time.Since(t0); el >= budget {
			return el.Seconds() / float64(n)
		}
	}
}

// heaviest returns the key with the largest weight; ties go to the key
// that prints first, so the choice does not depend on map order.
func heaviest[K comparable](weights map[K]int64) K {
	var best K
	first := true
	for k, v := range weights {
		if first || v > weights[best] || (v == weights[best] && fmt.Sprint(k) < fmt.Sprint(best)) {
			best, first = k, false
		}
	}
	return best
}

// dominantGemm returns the GEMM shape that carries the most flops of
// the workload.
func dominantGemm(w *tce.Workload) (m, n, k int) {
	flops := map[[3]int]int64{}
	for _, c := range w.Chains {
		for _, g := range c.Gemms {
			flops[[3]int{g.Op.M, g.Op.N, g.Op.K}] += g.Op.Flops()
		}
	}
	s := heaviest(flops)
	return s[0], s[1], s[2]
}

// gemmGflopsIsolated times the production call shape — dgemm('T','N'),
// beta = 1 — of one m×n×k product on one thread.
func gemmGflopsIsolated(m, n, k int, budget time.Duration) float64 {
	a, b, c := tensor.NewMatrix(k, m), tensor.NewMatrix(k, n), tensor.NewMatrix(m, n)
	ta := tensor.NewTile4(k, m, 1, 1)
	ta.FillRandom(1, 1)
	copy(a.Data, ta.Data)
	tb := tensor.NewTile4(k, n, 1, 1)
	tb.FillRandom(2, 1)
	copy(b.Data, tb.Data)
	per := repeatFor(budget, func() { tensor.Gemm(true, false, 1, a, b, 1, c) })
	return float64(tensor.GemmFlops(m, n, k)) / per / 1e9
}

// dominantSort returns the source dims and permutation of the SORT_4
// that moves the most bytes in the workload.
func dominantSort(w *tce.Workload) (dims, perm [4]int) {
	bytes := map[[2][4]int]int64{}
	for _, c := range w.Chains {
		for _, s := range c.Sorts {
			bytes[[2][4]int{c.CDims, s.Perm}] += tensor.Sort4Bytes(c.Out.Elems())
		}
	}
	s := heaviest(bytes)
	return s[0], s[1]
}

// sort4GbpsIsolated times the accumulate form the merged SORT body uses
// (Sort4Add into a destination tile) on one thread, in GB/s of the
// kernel's own traffic model (tensor.Sort4Bytes, computed not measured).
func sort4GbpsIsolated(dims, perm [4]int, budget time.Duration) float64 {
	src := tensor.NewTile4(dims[0], dims[1], dims[2], dims[3])
	src.FillRandom(3, 1)
	d := src.SortedDims(perm)
	dst := tensor.NewTile4(d[0], d[1], d[2], d[3])
	per := repeatFor(budget, func() { tensor.Sort4Add(dst, src, perm, -1) })
	return float64(tensor.Sort4Bytes(src.Len())) / per / 1e9
}

// accNsPerOp times ga.Store's ordered accumulate on the workload's own
// output blocks: one AccOrdered per chain plus the fold that the next
// read of the array triggers, which is where the floats are added.
func accNsPerOp(w *tce.Workload, budget time.Duration) float64 {
	srcs := map[[4]int]*tensor.Tile4{}
	for _, c := range w.Chains {
		if srcs[c.Out.Dims] == nil {
			t := tensor.NewTile4(c.Out.Dims[0], c.Out.Dims[1], c.Out.Dims[2], c.Out.Dims[3])
			t.FillRandom(4, 1)
			srcs[c.Out.Dims] = t
		}
	}
	per := repeatFor(budget, func() {
		store := ga.NewStore(1)
		store.Create(tce.TensorC)
		for i, c := range w.Chains {
			src := srcs[c.Out.Dims]
			// The ranges are whole tiles, so AccOrdered cannot fail.
			_ = store.AccOrdered(tce.TensorC, c.Out.Key, src, 1, i, 0, src.Len())
		}
		store.Array(tce.TensorC)
	})
	return per * 1e9 / float64(len(w.Chains))
}

// trackerBuildSeconds times ptg.NewTracker on a freshly bound graph:
// the instance enumeration and dependency counting every runtime.Run
// starts with.
func trackerBuildSeconds(bind func() *ptg.Graph, reps int) (float64, int, error) {
	var secs []float64
	var instances int
	for r := 0; r < reps; r++ {
		g := bind()
		t0 := time.Now()
		tk, err := ptg.NewTracker(g)
		if err != nil {
			return 0, 0, fmt.Errorf("tracker probe: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		instances = tk.NumInstances()
	}
	return median(secs), instances, nil
}

// journalAppendProbe appends n done-records to a fresh journal in dir
// and returns the median microseconds per Append.
func journalAppendProbe(dir string, n int) (float64, error) {
	path := filepath.Join(dir, "probe.journal")
	jl, _, err := serve.OpenJournal(path)
	if err != nil {
		return 0, fmt.Errorf("journal probe: %w", err)
	}
	defer os.Remove(path)
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		rec := serve.Record{Op: serve.OpDone, ID: fmt.Sprintf("j1-%06d", i), Result: &serve.JobResult{
			Energy: -1.25, Tasks: 282, Backend: serve.BackendInProcess, CacheHit: true, QueueNs: 1000, ExecNs: 3000000,
		}}
		t0 := time.Now()
		if err := jl.Append(rec); err != nil {
			jl.Close()
			return 0, fmt.Errorf("journal probe: %w", err)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if err := jl.Close(); err != nil {
		return 0, fmt.Errorf("journal probe: %w", err)
	}
	return median(us), nil
}
