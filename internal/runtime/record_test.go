package runtime

import (
	"sync/atomic"
	"testing"

	"parsec/internal/ptg"
	"parsec/internal/sched"
)

// checkSpans holds a recorded run's spans to the layout Report.Spans
// promises and obsv.FromSpans relies on: one span per executed task,
// every instance once, grouped by worker in increasing order with as
// many spans as that worker ran tasks — nobody appended to another
// worker's buffer — and each worker's row serial in time.
func checkSpans(t *testing.T, rep Report, instances int) {
	t.Helper()
	if len(rep.Spans) != rep.Tasks {
		t.Fatalf("%d spans recorded for %d tasks", len(rep.Spans), rep.Tasks)
	}
	seen := make([]bool, instances)
	perWorker := make([]int64, rep.Workers)
	for i, sp := range rep.Spans {
		if int(sp.Seq) >= instances || seen[sp.Seq] {
			t.Fatalf("span %d: Seq %d out of range or recorded twice", i, sp.Seq)
		}
		seen[sp.Seq] = true
		if int(sp.Worker) >= rep.Workers {
			t.Fatalf("span %d: worker %d of %d", i, sp.Worker, rep.Workers)
		}
		perWorker[sp.Worker]++
		if sp.End < sp.Start || sp.Start < 0 {
			t.Errorf("span %d: [%d,%d)", i, sp.Start, sp.End)
		}
		if i == 0 {
			continue
		}
		switch prev := rep.Spans[i-1]; {
		case sp.Worker < prev.Worker:
			t.Fatalf("span %d: worker %d after worker %d", i, sp.Worker, prev.Worker)
		case sp.Worker == prev.Worker && sp.Start < prev.End:
			t.Errorf("span %d: worker %d starts at %d before its previous task ended at %d", i, sp.Worker, sp.Start, prev.End)
		}
	}
	for w, n := range perWorker {
		if n != rep.Sched.PerWorkerTasks[w] {
			t.Errorf("worker %d: %d spans for %d tasks", w, n, rep.Sched.PerWorkerTasks[w])
		}
	}
}

// TestRunRecordedSpans: RunRecorded hands back the run's spans in the
// promised layout at every worker count and queue mode, stamped from the
// clock the report's busy time is summed from; Run hands back none.
func TestRunRecordedSpans(t *testing.T) {
	const width, layers, n = 8, 10, 8 * 10
	for _, q := range []sched.QueueMode{sched.SharedQueue, sched.PerWorker, sched.PerWorkerSteal} {
		for _, workers := range []int{1, 2, 4} {
			var done atomic.Int64
			rep, err := RunRecorded(stressDAG(width, layers, &done), Config{Workers: workers, Queues: q})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Tasks != n {
				t.Fatalf("%v/%d: %d tasks", q, workers, rep.Tasks)
			}
			checkSpans(t, rep, n)
			var busy int64
			for _, sp := range rep.Spans {
				busy += sp.End - sp.Start
			}
			if busy != int64(rep.BusyTime) {
				t.Errorf("%v/%d: spans sum to %d ns busy, report says %d", q, workers, busy, rep.BusyTime)
			}
		}
	}
	var done atomic.Int64
	rep, err := Run(stressDAG(width, layers, &done), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spans != nil {
		t.Errorf("unrecorded run reports %d spans", len(rep.Spans))
	}
}

// TestRecordGrowsPastItsEstimate: Record's n sizes the buffers, it does
// not bound them — an executor that runs more than it was told to
// expect (a rank that inherits a dead peer's share) keeps every span.
func TestRecordGrowsPastItsEstimate(t *testing.T) {
	const n = 10 * 20
	var done atomic.Int64
	tr, err := ptg.NewTracker(stressDAG(10, 20, &done))
	if err != nil {
		t.Fatal(err)
	}
	var x *Executor
	left := n
	x = NewExecutor(Config{Workers: 1}, Hooks{
		Start: tr.Start,
		Complete: func(in *ptg.Instance, out []any, ready []*ptg.Instance) ([]*ptg.Instance, error) {
			ready, err := tr.CompleteDeliver(in, out, ready)
			if left--; left == 0 {
				x.Halt()
			}
			return ready, err
		},
	})
	x.Record(1)
	x.Preload(tr.AppendInitialReady(nil))
	if err := x.Run(); err != nil {
		t.Fatal(err)
	}
	checkSpans(t, x.Report(), n)
}
