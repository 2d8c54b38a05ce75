package simexec

import (
	"runtime"
	"strings"
	"testing"

	"parsec/internal/ptg"
	"parsec/internal/sched"
)

// maxAllocsPerTask bounds a run's allocations per task on the graph of
// TestThreadsAreCallbacks: a 2-node × 4-core fan of 512 tasks allocates
// ~0.24 per task, the run's set-up spread over its tasks, none of it per
// wait. A coroutine per simulated thread made it ~0.51.
const maxAllocsPerTask = 0.35

// TestThreadsAreCallbacks pins that simexec's workers and comm threads
// are callback actors, not coroutines: no scheduling decision of a
// multi-node run ever sees a goroutine beyond the caller's, and the run
// allocates under maxAllocsPerTask per task.
func TestThreadsAreCallbacks(t *testing.T) {
	const n, nodes, cores = 512, 2, 4
	base := runtime.NumGoroutine()
	peak, decisions := 0, 0
	run := func() {
		m, gs := testMachine(nodes, cores)
		res, err := Run(fanGraph(n, 1e7, nodes), m, gs, Config{
			CoresPerNode: cores,
			SchedObserver: func(sched.Event) {
				decisions++
				peak = max(peak, runtime.NumGoroutine())
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Tasks != n {
			t.Fatalf("tasks = %d, want %d", res.Tasks, n)
		}
	}
	run()
	if decisions == 0 {
		t.Fatal("the observer saw no scheduling decision")
	}
	if peak > base {
		t.Errorf("%d goroutines during the run, %d before: simulated threads are not callbacks", peak, base)
	}
	allocs := testing.AllocsPerRun(5, run) / n
	t.Logf("%.3f allocations per task", allocs)
	if allocs > maxAllocsPerTask {
		t.Errorf("%.3f allocations per task, want at most %v", allocs, maxAllocsPerTask)
	}
}

// stalledGraph is the graph of internal/runtime's mid-run deadlock test:
// SRC runs, then T(0) and T(1) wait on each other forever.
func stalledGraph() *ptg.Graph {
	g := ptg.NewGraph("dl-mid")
	src := g.Class("SRC")
	src.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)) }
	c := g.Class("T")
	c.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)); emit(ptg.A1(1)) }
	c.AddFlow("D", ptg.RW).
		In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "T", Args: ptg.A1(1 - a[0])}, "D"
		}).
		Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "T", Args: ptg.A1(1 - a[0])}, "D"
		})
	return g
}

// TestStalledGraphFails: a graph that stops making progress leaves every
// thread parked and the event queue empty. The engine does not count
// parked actors as a deadlock, so the tracker's quiescence check must
// turn the stall into an error, never into a result with a zero
// makespan.
func TestStalledGraphFails(t *testing.T) {
	for _, q := range []sched.QueueMode{sched.SharedQueue, sched.PerWorker, sched.PerWorkerSteal} {
		m, gs := testMachine(2, 2)
		res, err := Run(stalledGraph(), m, gs, Config{CoresPerNode: 2, Queues: q})
		if err == nil {
			t.Fatalf("mode %v: stalled graph returned %v", q, res)
		}
		if !strings.Contains(err.Error(), "2 task(s) incomplete") {
			t.Errorf("mode %v: error = %q, want mention of 2 stuck tasks", q, err)
		}
	}
}
