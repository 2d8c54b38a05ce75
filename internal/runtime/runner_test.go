package runtime_test

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/sched"
	"parsec/internal/tensor/pool"
)

// TestRunnerRunsLikeANewRun pins what a Runner keeps between runs
// against what it must not: on one worker a schedule is a pure function
// of the queues and the steal stream, so a reused runner must pop the
// very sequence a new one pops, and report the same counters — after a
// run of another, larger graph, after a run canceled with tasks still
// queued, and after one a task body failed. A body that fails inside a
// span leaves parts of it published; the next run's idle workers must
// not run them. Every queue mode and both policies; the graphs are
// water's v5 and v1 plans without bodies.
func TestRunnerRunsLikeANewRun(t *testing.T) {
	graphs := map[string]*ptg.Graph{}
	for _, name := range []string{"v5", "v1"} {
		spec, err := ccsd.VariantByName(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = ccsd.Compile(molecule.Water631G(), spec, ccsd.Options{Nodes: 1}).NewGraph(nil)
	}
	failing := ptg.NewGraph("failing")
	tc := failing.Class("T")
	tc.Domain = func(emit func(ptg.Args)) {
		for i := 0; i < 64; i++ {
			emit(ptg.A1(i))
		}
	}
	tc.Body = func(ctx *ptg.Ctx) {
		if ctx.Args[0] == 40 {
			panic("task 40")
		}
	}
	// spanning panics in the first part of a span of four, leaving the
	// other three parts published and unclaimed on a one-worker run.
	var stale atomic.Int32
	spanning := ptg.NewGraph("spanning")
	sc := spanning.Class("S")
	sc.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)) }
	sc.Body = func(ctx *ptg.Ctx) {
		ctx.Par.Span(4, func(part int, _ *pool.Local) {
			if part == 0 {
				panic("part 0")
			}
			stale.Add(1)
		})
	}
	type outcome struct {
		pops   []int
		report runtime.Report
	}
	// run runs g on one worker, collecting its pops.
	run := func(r *runtime.Runner, g *ptg.Graph, pol sched.Policy, mode sched.QueueMode) outcome {
		var o outcome
		o.report, _ = r.Run(g, runtime.Config{Workers: 1, Policy: pol, Queues: mode,
			SchedObserver: func(e sched.Event) {
				if e.Op == sched.OpPop || e.Op == sched.OpSteal {
					o.pops = append(o.pops, e.Inst.Seq)
				}
			}})
		return o
	}
	same := func(a, b outcome) error {
		ra, rb := a.report, b.report
		ra.Elapsed, ra.BusyTime, rb.Elapsed, rb.BusyTime = 0, 0, 0, 0
		if !slices.Equal(a.pops, b.pops) {
			return fmt.Errorf("pops differ (%d against %d)", len(a.pops), len(b.pops))
		}
		if fmt.Sprint(ra) != fmt.Sprint(rb) || fmt.Sprint(ra.ByClass) != fmt.Sprint(rb.ByClass) ||
			fmt.Sprint(ra.Sched) != fmt.Sprint(rb.Sched) || !slices.Equal(ra.Sched.PerWorkerTasks, rb.Sched.PerWorkerTasks) {
			return fmt.Errorf("reports differ: %+v against %+v", ra, rb)
		}
		return nil
	}
	for _, pol := range []sched.Policy{sched.PriorityOrder, sched.LIFOOrder} {
		for _, mode := range []sched.QueueMode{sched.SharedQueue, sched.PerWorker, sched.PerWorkerSteal} {
			t.Run(fmt.Sprintf("%v/%v", pol, mode), func(t *testing.T) {
				want := run(new(runtime.Runner), graphs["v5"], pol, mode)
				if want.report.Tasks == 0 {
					t.Fatal("the reference run ran nothing")
				}
				r := new(runtime.Runner)
				if _, err := r.Run(graphs["v1"], runtime.Config{Workers: 3, Policy: pol, Queues: mode}); err != nil {
					t.Fatal(err)
				}
				// Canceled with most of the graph still queued on its shards.
				cancel := make(chan struct{})
				var started atomic.Int32
				_, err := r.Run(graphs["v5"], runtime.Config{Workers: 2, Policy: pol, Queues: mode, Cancel: cancel,
					TaskDelay: func(int, ptg.TaskRef) time.Duration {
						if started.Add(1) == 100 {
							close(cancel)
							return time.Millisecond
						}
						return 0
					}})
				if !errors.Is(err, runtime.ErrCanceled) {
					t.Fatalf("canceled run returned %v", err)
				}
				if err := same(run(r, graphs["v5"], pol, mode), want); err != nil {
					t.Fatalf("after a canceled run: %v", err)
				}
				if _, err := r.Run(failing, runtime.Config{Workers: 2, Policy: pol, Queues: mode}); err == nil {
					t.Fatal("a panicking body did not fail its run")
				}
				if err := same(run(r, graphs["v5"], pol, mode), want); err != nil {
					t.Fatalf("after a failed run: %v", err)
				}
				if err := same(run(r, graphs["v5"], pol, mode), want); err != nil {
					t.Fatalf("run again: %v", err)
				}
				// A span a failed body left behind is not the next run's
				// to help with.
				if _, err := r.Run(spanning, runtime.Config{Workers: 1, Policy: pol, Queues: mode}); err == nil {
					t.Fatal("a body panicking inside a span did not fail its run")
				}
				rep, err := r.Run(graphs["v5"], runtime.Config{Workers: 2, Policy: pol, Queues: mode})
				if err != nil || rep.Sched.LendHelped != 0 || stale.Load() != 0 {
					t.Fatalf("after a run failed inside a span: error %v, %d parts helped, %d stale parts run", err, rep.Sched.LendHelped, stale.Load())
				}
			})
		}
	}
}
