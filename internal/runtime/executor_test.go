package runtime

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsec/internal/ptg"
	"parsec/internal/sched"
)

// TestExecutorForeignPushWhileParked is the lost-wakeup regression for
// the seam a rank uses: instances pushed by goroutines that are not
// workers, into an executor whose workers are all parked (or about to
// be — nparked is published before the park recheck, which is exactly
// the window a push must not fall into). Every instance must run exactly
// once in every queue mode; a lost wakeup shows as a hang.
func TestExecutorForeignPushWhileParked(t *testing.T) {
	const workers, n = 4, 240
	for _, mode := range []sched.QueueMode{sched.SharedQueue, sched.PerWorker, sched.PerWorkerSteal} {
		t.Run(mode.String(), func(t *testing.T) {
			g := ptg.NewGraph("foreign-push")
			tc := g.Class("T")
			tc.Domain = func(emit func(ptg.Args)) {
				for i := 0; i < n; i++ {
					emit(ptg.A1(i))
				}
			}
			tc.AddFlow("D", ptg.Write).InNew(nil, func(ptg.Args) int64 { return 8 })
			runs := make([]atomic.Int32, n)
			tc.Body = func(ctx *ptg.Ctx) { runs[ctx.Args[0]].Add(1) }
			tr, err := ptg.NewTracker(g)
			if err != nil {
				t.Fatal(err)
			}
			insts := tr.InitialReady()
			if len(insts) != n {
				t.Fatalf("%d ready instances, want %d", len(insts), n)
			}

			var completed atomic.Int64
			var x *Executor
			x = NewExecutor(Config{Workers: workers, Queues: mode}, Hooks{
				Start: tr.Start,
				Complete: func(in *ptg.Instance, out []any, ready []*ptg.Instance) ([]*ptg.Instance, error) {
					if completed.Add(1) == n {
						x.Halt()
					}
					return ready, nil
				},
			})
			done := make(chan error, 1)
			go func() { done <- x.Run() }()

			deadline := time.Now().Add(30 * time.Second)
			await := func(what string, cond func() bool) {
				t.Helper()
				for !cond() {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s: %d/%d completed, %d/%d workers parked",
							what, completed.Load(), n, x.nparked.Load(), workers)
					}
					goruntime.Gosched()
				}
			}
			// First half: one push per all-parked state, so each push alone
			// is responsible for a wakeup.
			for i := 0; i < n/2; i++ {
				await("all workers parked", func() bool { return x.nparked.Load() == workers })
				x.Push(insts[i])
				await(fmt.Sprintf("push %d to run", i), func() bool { return completed.Load() == int64(i+1) })
			}
			// Second half: two foreign goroutines pushing back to back while
			// workers park and unpark underneath them.
			var wg sync.WaitGroup
			for p := 0; p < 2; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := n/2 + p; i < n; i += 2 {
						x.Push(insts[i])
					}
				}(p)
			}
			wg.Wait()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(time.Until(deadline)):
				t.Fatalf("executor never drained: %d/%d completed", completed.Load(), n)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Errorf("instance %d ran %d times", i, c)
				}
			}
			if b := x.Backlog(); b != 0 {
				t.Errorf("backlog %d after the run", b)
			}
		})
	}
}

// TestExecutorTakeWhere checks the predicate take behind a rank's steal
// probe: across shards it removes the Before-best match, leaves the rest
// for the workers, and keeps the emptiness mirrors right (a stale one
// would park a worker next to a nonempty shard, or spin it on an empty
// one).
func TestExecutorTakeWhere(t *testing.T) {
	// The queued tasks are found and removed the same whether they were
	// pushed one by one or adopted as a preloaded run.
	t.Run("pushed", func(t *testing.T) {
		testTakeWhere(t, func(x *Executor, tr *ptg.Tracker) {
			for _, in := range tr.InitialReady() {
				x.Push(in)
			}
		})
	})
	t.Run("preloaded", func(t *testing.T) {
		testTakeWhere(t, func(x *Executor, tr *ptg.Tracker) { x.Preload(tr.InitialReadySorted()) })
	})
}

func testTakeWhere(t *testing.T, enqueue func(*Executor, *ptg.Tracker)) {
	const n = 12
	g := ptg.NewGraph("take-where")
	tc := g.Class("T")
	tc.Domain = func(emit func(ptg.Args)) {
		for i := 0; i < n; i++ {
			emit(ptg.A1(i))
		}
	}
	tc.Priority = func(a ptg.Args) int64 { return int64(a[0] % 4) }
	tc.AddFlow("D", ptg.Write).InNew(nil, func(ptg.Args) int64 { return 8 })
	tr, err := ptg.NewTracker(g)
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	var x *Executor
	x = NewExecutor(Config{Workers: 3, Queues: sched.PerWorkerSteal}, Hooks{
		Start: tr.Start,
		Complete: func(in *ptg.Instance, out []any, ready []*ptg.Instance) ([]*ptg.Instance, error) {
			if ran.Add(1) == n-2 {
				x.Halt()
			}
			return ready, nil
		},
	})
	enqueue(x, tr)
	odd := func(in *ptg.Instance) bool { return in.Ref.Args[0]%2 == 1 }
	// Odd instances have priority 1 or 3; the best is the lowest-Seq
	// priority-3 one, then the next.
	for _, want := range []int{3, 7} {
		if in := x.TakeWhere(odd); in == nil || in.Ref.Args[0] != want {
			t.Fatalf("TakeWhere = %v, want T(%d)", in, want)
		}
	}
	if in := x.TakeWhere(func(*ptg.Instance) bool { return false }); in != nil {
		t.Fatalf("TakeWhere with no match = %v", in)
	}
	if b := x.Backlog(); b != n-2 {
		t.Fatalf("backlog %d after two takes, want %d", b, n-2)
	}
	if err := x.Run(); err != nil {
		t.Fatal(err)
	}
	if got := x.Report().Tasks; got != n-2 {
		t.Fatalf("workers ran %d tasks, want the %d left queued", got, n-2)
	}
}

// TestHandOffHeldTaskSurvivesStop stops the run — by Halt, by Fail, by
// Cancel — at the one point where a ready task is in neither a queue nor
// a body: after a completion handed its successor to the completing
// worker. The successor must be back in Backlog when Run returns and its
// body must never have run; a rank counts on both when it reports or
// re-homes what it did not finish.
func TestHandOffHeldTaskSurvivesStop(t *testing.T) {
	errBoom := errors.New("boom")
	stops := []struct {
		name string
		stop func(x *Executor, cancel chan struct{})
		want error
	}{
		{"halt", func(x *Executor, _ chan struct{}) { x.Halt() }, nil},
		{"fail", func(x *Executor, _ chan struct{}) { x.Fail(errBoom) }, errBoom},
		{"cancel", func(x *Executor, cancel chan struct{}) {
			close(cancel)
			for x.Err() == nil { // the watcher goroutine delivers it
				goruntime.Gosched()
			}
		}, ErrCanceled},
	}
	for _, st := range stops {
		t.Run(st.name, func(t *testing.T) {
			g := ptg.NewGraph("held")
			tc := g.Class("STEP")
			tc.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)); emit(ptg.A1(1)) }
			tc.AddFlow("D", ptg.RW).
				InNew(func(a ptg.Args) bool { return a[0] == 0 }, func(ptg.Args) int64 { return 8 }).
				In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
					return ptg.TaskRef{Class: "STEP", Args: ptg.A1(a[0] - 1)}, "D"
				}).
				Out(func(a ptg.Args) bool { return a[0] == 0 }, func(a ptg.Args) (ptg.TaskRef, string) {
					return ptg.TaskRef{Class: "STEP", Args: ptg.A1(1)}, "D"
				})
			var ranSecond atomic.Bool
			tc.Body = func(ctx *ptg.Ctx) {
				if ctx.Args[0] == 1 {
					ranSecond.Store(true)
				}
			}
			tr, err := ptg.NewTracker(g)
			if err != nil {
				t.Fatal(err)
			}
			cancel := make(chan struct{})
			// One worker: nobody else can be between its stop check and
			// its pop when the stop lands, so the outcome is exact.
			var x *Executor
			x = NewExecutor(Config{Workers: 1, Cancel: cancel}, Hooks{
				Start: tr.Start,
				Complete: func(in *ptg.Instance, out []any, ready []*ptg.Instance) ([]*ptg.Instance, error) {
					ready, err := tr.CompleteDeliver(in, out, ready)
					if len(ready) != 1 {
						t.Errorf("completing %v readied %d tasks, want 1", in.Ref, len(ready))
					}
					st.stop(x, cancel)
					return ready, err
				},
			})
			x.Preload(tr.InitialReadySorted())
			if err := x.Run(); !errors.Is(err, st.want) {
				t.Fatalf("Run = %v, want %v", err, st.want)
			}
			if ranSecond.Load() {
				t.Error("the held successor ran after the stop")
			}
			if b := x.Backlog(); b != 1 {
				t.Errorf("backlog %d after the stop, want the held successor", b)
			}
			if in := x.TakeWhere(func(*ptg.Instance) bool { return true }); in == nil || in.Ref.Args[0] != 1 {
				t.Errorf("queued after the stop: %v, want STEP(1)", in)
			}
		})
	}
}
