package runtime

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"parsec/internal/ptg"
	"parsec/internal/sched"
)

// sleeperGraph builds n independent tasks whose bodies sleep for d and
// count executions — enough runway for a cancellation to land mid-run.
func sleeperGraph(n int, d time.Duration, ran *atomic.Int64) *ptg.Graph {
	g := ptg.NewGraph("sleepers")
	tc := g.Class("SLEEP")
	tc.Domain = func(emit func(ptg.Args)) {
		for i := 0; i < n; i++ {
			emit(ptg.A1(i))
		}
	}
	f := tc.AddFlow("D", ptg.Write)
	f.InNew(nil, func(a ptg.Args) int64 { return 8 })
	tc.Body = func(ctx *ptg.Ctx) {
		time.Sleep(d)
		ran.Add(1)
		ctx.Out[0] = 1
	}
	return g
}

// TestRunCancelMidRun cancels a run partway through: Run must return
// ErrCanceled promptly, without executing the whole graph.
func TestRunCancelMidRun(t *testing.T) {
	var ran atomic.Int64
	const n = 400
	g := sleeperGraph(n, 2*time.Millisecond, &ran)
	cancel := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(cancel)
	}()
	_, err := Run(g, Config{Workers: 2, Queues: sched.PerWorkerSteal, Cancel: cancel})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if got := ran.Load(); got == 0 || got >= n {
		t.Fatalf("ran %d of %d tasks; want some but not all", got, n)
	}
}

// TestRunCancelBeforeStart runs with an already-fired cancellation: the
// run must abort immediately (workers may still complete a handful of
// tasks they popped before observing the halt).
func TestRunCancelBeforeStart(t *testing.T) {
	var ran atomic.Int64
	g := sleeperGraph(64, time.Millisecond, &ran)
	cancel := make(chan struct{})
	close(cancel)
	_, err := Run(g, Config{Workers: 2, Cancel: cancel})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if got := ran.Load(); got >= 64 {
		t.Fatalf("ran all %d tasks despite pre-fired cancel", got)
	}
}

// TestRunNilCancelUnaffected pins that a nil Cancel leaves Run's happy
// path untouched.
func TestRunNilCancelUnaffected(t *testing.T) {
	var ran atomic.Int64
	g := sleeperGraph(8, 0, &ran)
	rep, err := Run(g, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != 8 || ran.Load() != 8 {
		t.Fatalf("tasks = %d, ran = %d, want 8", rep.Tasks, ran.Load())
	}
}

// TestRunCancelAfterDone pins that a cancellation arriving after the
// graph completed does not turn a successful run into an error.
func TestRunCancelAfterDone(t *testing.T) {
	var ran atomic.Int64
	g := sleeperGraph(4, 0, &ran)
	cancel := make(chan struct{})
	rep, err := Run(g, Config{Workers: 2, Cancel: cancel})
	close(cancel)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != 4 {
		t.Fatalf("tasks = %d, want 4", rep.Tasks)
	}
}

// TestExecutorCancelFromLastComplete closes Cancel from the Complete
// hook of the final task, right after the hook halted the executor: the
// run is decided complete while Run is about to read its error, and the
// cancel watcher's Fail races that read (run under -race). The completed
// run must not be relabeled canceled.
func TestExecutorCancelFromLastComplete(t *testing.T) {
	const n = 16
	for round := 0; round < 50; round++ {
		var ran, completed atomic.Int64
		tr, err := ptg.NewTracker(sleeperGraph(n, 0, &ran))
		if err != nil {
			t.Fatal(err)
		}
		cancel := make(chan struct{})
		var x *Executor
		x = NewExecutor(Config{Workers: 2, Cancel: cancel}, Hooks{
			Start: tr.Start,
			Complete: func(in *ptg.Instance, out []any, s *Scratch) (err error) {
				s.Ready, err = tr.CompleteDeliver(in, out, s.Ready)
				if completed.Add(1) == n {
					x.Halt()
					close(cancel)
				}
				return err
			},
		})
		x.Preload(tr.AppendInitialReady(nil))
		err = x.Run()
		if rep := x.Report(); err != nil || rep.Tasks != n {
			t.Fatalf("round %d: err = %v, tasks = %d; want a clean run of %d", round, err, rep.Tasks, n)
		}
	}
}
