package runtime_test

import (
	"fmt"
	"testing"

	"parsec/internal/ccsd"
	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/sched"
)

// heapPushReference is one-worker scheduling with nothing clever in it:
// the initially-ready instances pushed one by one in creation order,
// then pop, complete, push every successor that became ready, until the
// queue is dry. It never preloads a run and never keeps a successor in
// hand, so it is what Run's pop order is pinned against.
func heapPushReference(t *testing.T, g *ptg.Graph, pol sched.Policy, mode sched.QueueMode) []int {
	t.Helper()
	tr, err := ptg.NewTracker(g)
	if err != nil {
		t.Fatal(err)
	}
	q := sched.NewQueue(pol, mode)
	for _, in := range tr.InitialReady() {
		q.Push(in)
	}
	var order []int
	var ready []*ptg.Instance
	for in, _ := q.Pop(); in != nil; in, _ = q.Pop() {
		if err := tr.Start(in); err != nil {
			t.Fatal(err)
		}
		order = append(order, in.Seq)
		if ready, err = tr.CompleteDeliver(in, in.In, ready[:0]); err != nil {
			t.Fatal(err)
		}
		for _, succ := range ready {
			q.Push(succ)
		}
	}
	if err := tr.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	return order
}

// TestRunPopOrderMatchesHeapReference runs the benchmark's
// dispatch-bound v5 graph (28,304 instances, two thirds of them ready at
// the start) on one worker and requires the OpPop sequence the observer
// sees to be the reference's, task for task, under both policies and all
// three queue modes. At one worker a schedule is a pure function of the
// queue's order, so a preloaded run merged wrongly with the heap, or a
// hand-off that kept a successor the queue would not have served next,
// shows up as the first diverging pop.
func TestRunPopOrderMatchesHeapReference(t *testing.T) {
	spec, err := ccsd.VariantByName("v5")
	if err != nil {
		t.Fatal(err)
	}
	plan := ccsd.Compile(molecule.Custom("dispatch", 12, 24, 4, 2, 1), spec, ccsd.Options{Nodes: 1})
	for _, pol := range []sched.Policy{sched.PriorityOrder, sched.LIFOOrder} {
		for _, mode := range []sched.QueueMode{sched.SharedQueue, sched.PerWorker, sched.PerWorkerSteal} {
			t.Run(fmt.Sprintf("%v/%v", pol, mode), func(t *testing.T) {
				want := heapPushReference(t, plan.NewGraph(nil), pol, mode)
				var got []int
				enqueued := 0
				rep, err := runtime.Run(plan.NewGraph(nil), runtime.Config{
					Workers: 1, Policy: pol, Queues: mode,
					SchedObserver: func(e sched.Event) {
						switch e.Op {
						case sched.OpPop:
							got = append(got, e.Inst.Seq)
						case sched.OpEnqueue:
							enqueued++
						}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Tasks != len(want) || len(got) != len(want) {
					t.Fatalf("ran %d tasks with %d pops, reference ran %d", rep.Tasks, len(got), len(want))
				}
				// Every task is announced as enqueued exactly once, whether it
				// arrived in the preloaded run, by push, or stayed in hand.
				if enqueued != len(want) {
					t.Errorf("%d enqueue events for %d tasks", enqueued, len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("pop %d of %d: Run served seq %d, reference seq %d", i, len(want), got[i], want[i])
					}
				}
			})
		}
	}
}
