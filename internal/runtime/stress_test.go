package runtime

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parsec/internal/ptg"
	"parsec/internal/sched"
)

// stressDAG builds a layered DAG: width tasks per layer, layers deep.
// Task (l,i) reads from (l-1,i) and (l-1,(i+1)%width), so every handoff
// crosses shard boundaries and layers ripple ready-ness diagonally. The
// body spins a deterministic pseudo-random 0–50µs so workers finish out
// of phase and steal/park paths get exercised rather than lockstepping.
func stressDAG(width, layers int, done *atomic.Int64) *ptg.Graph {
	g := ptg.NewGraph("stress")
	c := g.Class("T")
	c.Domain = func(emit func(ptg.Args)) {
		for l := 0; l < layers; l++ {
			for i := 0; i < width; i++ {
				emit(ptg.Args{l, i})
			}
		}
	}
	c.AddFlow("A", ptg.RW).
		InNew(func(a ptg.Args) bool { return a[0] == 0 }, func(a ptg.Args) int64 { return 8 }).
		In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "T", Args: ptg.Args{a[0] - 1, a[1]}}, "A"
		}).
		Out(func(a ptg.Args) bool { return a[0] < layers-1 }, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "T", Args: ptg.Args{a[0] + 1, a[1]}}, "A"
		}).
		Out(func(a ptg.Args) bool { return a[0] < layers-1 }, func(a ptg.Args) (ptg.TaskRef, string) {
			w := width
			return ptg.TaskRef{Class: "T", Args: ptg.Args{a[0] + 1, (a[1] - 1 + w) % w}}, "B"
		})
	c.AddFlow("B", ptg.Read).
		InNew(func(a ptg.Args) bool { return a[0] == 0 }, func(a ptg.Args) int64 { return 8 }).
		In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			w := width
			return ptg.TaskRef{Class: "T", Args: ptg.Args{a[0] - 1, (a[1] + 1) % w}}, "A"
		})
	c.Body = func(ctx *ptg.Ctx) {
		// xorshift on the task coordinates picks the spin length so reruns
		// are identical and neighbors differ.
		x := uint64(ctx.Args[0]*width+ctx.Args[1])*0x9E3779B97F4A7C15 + 1
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		spin := time.Duration(x%50) * time.Microsecond
		for t0 := time.Now(); time.Since(t0) < spin; {
		}
		ctx.Out[0] = int64(ctx.Args[0])
		done.Add(1)
	}
	return g
}

func TestStressLayeredDAG(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	const width, layers = 50, 100
	for _, q := range []sched.QueueMode{sched.SharedQueue, sched.PerWorker, sched.PerWorkerSteal} {
		q := q
		t.Run(q.String(), func(t *testing.T) {
			var done atomic.Int64
			rep, err := RunRecorded(stressDAG(width, layers, &done), Config{Workers: 8, Queues: q})
			if err != nil {
				t.Fatal(err)
			}
			checkSpans(t, rep, width*layers)
			if want := int64(width * layers); done.Load() != want || int64(rep.Tasks) != want {
				t.Errorf("ran %d bodies, report %d tasks, want %d", done.Load(), rep.Tasks, want)
			}
			if got := sumPerWorker(rep.Sched.PerWorkerTasks); got != int64(rep.Tasks) {
				t.Errorf("sum(PerWorkerTasks) = %d, want %d", got, rep.Tasks)
			}
		})
	}
}

// Deadlock detection must survive the sharded scheduler: the worker that
// drives the pending count to zero with tasks still unsatisfied reports
// the deadlock instead of hanging, and the error names the stuck count.

func TestDeadlockMidRunReportsCount(t *testing.T) {
	// SRC runs fine, then two tasks waiting on each other never fire.
	g := ptg.NewGraph("dl-mid")
	src := g.Class("SRC")
	src.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)) }
	src.Body = func(ctx *ptg.Ctx) {}

	c := g.Class("T")
	c.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)); emit(ptg.A1(1)) }
	c.AddFlow("D", ptg.RW).
		In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "T", Args: ptg.A1(1 - a[0])}, "D"
		}).
		Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "T", Args: ptg.A1(1 - a[0])}, "D"
		})

	for _, q := range []sched.QueueMode{sched.SharedQueue, sched.PerWorker, sched.PerWorkerSteal} {
		_, err := Run(g, Config{Workers: 4, Queues: q})
		if err == nil {
			t.Fatalf("mode %v: deadlock not detected", q)
		}
		if !strings.Contains(err.Error(), "deadlock with 2 tasks remaining") {
			t.Errorf("mode %v: error = %q, want mention of 2 stuck tasks", q, err)
		}
	}
}

func TestDeadlockAtStartReportsCount(t *testing.T) {
	// No task is ever initially ready: the cycle is the whole graph.
	g := ptg.NewGraph("dl-start")
	c := g.Class("T")
	c.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)); emit(ptg.A1(1)) }
	c.AddFlow("D", ptg.RW).
		In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "T", Args: ptg.A1(1 - a[0])}, "D"
		}).
		Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "T", Args: ptg.A1(1 - a[0])}, "D"
		})
	_, err := Run(g, Config{Workers: 2})
	if err == nil {
		t.Fatal("deadlock not detected")
	}
	if !strings.Contains(err.Error(), "deadlock with 2 tasks remaining") {
		t.Errorf("error = %q, want mention of 2 stuck tasks", err)
	}
}
