// Package runtime executes a Parameterized Task Graph with real data on
// shared-memory worker goroutines. It is the execution half of the
// PaRSEC-style system for in-process use: an event-driven scheduler that
// reacts to task completions by evaluating the PTG's dataflow (§II-B),
// delivering payloads to successors, and dispatching newly ready tasks to
// workers in priority order.
//
// The scheduler is sharded the way PaRSEC's per-thread ready queues are
// (§IV-D): each worker owns a mutex-protected priority deque and pushes,
// pops, and is stolen from under that shard's lock only. Idle workers
// park on per-worker wake channels instead of a global condition
// broadcast, and PerWorkerSteal performs randomized victim selection that
// locks one victim at a time. Completion and dataflow delivery run on the
// tracker's own synchronization (see ptg.Tracker), so task bodies and
// successor activation never serialize against dispatch.
//
// That machinery is the Executor (executor.go), the repo's one real
// worker loop. Run is the executor over a whole-graph tracker with
// pending-token termination as its completion hook; each rank of the
// socket runtime (internal/netrun) is the same executor with a
// transport behind its hooks. The simulated-machine counterpart is
// internal/simexec. All of them consume the same graphs and take every
// scheduling decision — pop order, queue pinning, steal-victim choice —
// from the shared core in internal/sched, which the conformance suite
// there proves they apply identically.
package runtime

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"parsec/internal/ptg"
	"parsec/internal/sched"
	"parsec/internal/trace"
)

// ErrCanceled is the error Run returns when Config.Cancel fires before
// the graph completes. Task bodies already executing finish normally —
// cancellation is only observed between tasks — and every worker's
// scratch shard is drained before Run returns, so a canceled run leaks
// nothing. Callers distinguish cancellation from task failure with
// errors.Is.
var ErrCanceled = errors.New("runtime: run canceled")

// Config controls a run. To watch one, record it (RunRecorded,
// Executor.Record): Report.Spans then holds one span per task.
type Config struct {
	// Workers is the number of worker goroutines; 0 means GOMAXPROCS.
	Workers int
	Policy  sched.Policy
	// Queues selects the ready-queue structure (default SharedQueue).
	Queues sched.QueueMode
	// TaskDelay, if set, is called before each task body with the
	// executing worker and instance, and the worker sleeps for the
	// returned duration. It is a fault-injection hook: straggler tests
	// slow chosen workers down to exercise steal-under-straggler on the
	// real runtime. Called concurrently from workers; must be safe.
	TaskDelay func(worker int, ref ptg.TaskRef) time.Duration
	// SchedObserver, if set, receives every scheduling decision
	// (enqueue/pop/steal) as the core makes it. Called concurrently
	// from workers, sometimes under a shard lock: it must be cheap,
	// safe, and must not call back into the runtime. The conformance
	// suite in internal/sched uses it to compare decisions against the
	// simulator's.
	SchedObserver sched.Observer
	// Cancel, if non-nil, aborts the run as soon as it becomes
	// readable (typically by closing it): no new task starts, running
	// bodies finish, and Run returns ErrCanceled. This is the hook the
	// long-running service threads a job's cancellation through.
	Cancel <-chan struct{}
}

// SchedStats exposes the scheduler's internal counters for one run,
// the shared-memory analogue of the per-thread-queue behavior the paper
// discusses in §IV-D (work stealing inside the node).
type SchedStats struct {
	// StealAttempts counts victim probes by workers whose own deque was
	// empty (PerWorkerSteal only); Steals counts probes that won a task.
	StealAttempts int64
	Steals        int64
	// Parks counts workers going to sleep; Wakes counts unpark tokens
	// delivered by enqueuers (stop-time broadcasts are not counted).
	Parks int64
	Wakes int64
	// LendSpans counts intra-task parallel regions published by task
	// bodies (team.Parallelism.Span with parts > 1); LendHelped counts
	// span parts executed by volunteering idle workers — parts the
	// spanning worker ran itself are not helped.
	LendSpans  int64
	LendHelped int64
	// PerWorkerTasks is the number of task bodies each worker executed.
	PerWorkerTasks []int64
	// MaxQueueDepth is the deepest any single shard grew.
	MaxQueueDepth int
}

// String summarizes the counters in one line.
func (s SchedStats) String() string {
	return fmt.Sprintf("steals %d/%d, parks %d, wakes %d, max queue depth %d",
		s.Steals, s.StealAttempts, s.Parks, s.Wakes, s.MaxQueueDepth)
}

// Report summarizes a completed run.
type Report struct {
	Tasks    int
	ByClass  map[string]int
	Workers  int
	Elapsed  time.Duration
	BusyTime time.Duration // summed task execution time across workers
	Sched    SchedStats
	// Spans is one span per executed task when the run was recorded
	// (RunRecorded, Executor.Record), nil otherwise: grouped by worker in
	// increasing order, each worker's in the order it ran them, which is
	// start order. obsv.FromSpans profiles them as they are; a
	// trace.Trace holds them for the renderers.
	Spans []trace.Span
}

// String summarizes the run in one line.
func (r Report) String() string {
	return fmt.Sprintf("%d tasks on %d workers in %v (busy %v)", r.Tasks, r.Workers, r.Elapsed, r.BusyTime)
}

// Run executes the graph to completion and returns a report. Execution is
// aborted with an error if a task body panics or the graph deadlocks.
func Run(g *ptg.Graph, cfg Config) (Report, error) { return new(Runner).Run(g, cfg) }

// RunRecorded is Run with span recording on: the report's Spans hold one
// trace.Span per executed task. It is what a caller that wants a profile
// or a trace of the run asks for.
func RunRecorded(g *ptg.Graph, cfg Config) (Report, error) { return new(Runner).RunRecorded(g, cfg) }

// Runner runs graphs one after another on what it keeps from each run
// for the next: the tracker's instance and payload slabs, and the
// executor with its queues, per-worker scratch shards and span buffers.
// It is Run for a caller that runs many jobs — of one graph or of
// several — and would otherwise allocate all of that per job. Every run
// re-initialises that state in place (ptg.Tracker.Reset, and the
// executor's reset to what NewExecutor builds), so no run sees anything
// of the one before, also when that one failed or was canceled; the
// report, its spans included, is the caller's. Between runs a Runner
// holds no payload of the last one. A Runner runs one graph at a time;
// the zero value is ready to use.
type Runner struct {
	tr ptg.Tracker
	x  *Executor
	// pending counts tasks that are ready-queued or running: set before
	// the initial tasks are pushed, decremented only after a completion
	// has handed the executor every successor it made ready. The
	// completion that drives it to zero owns termination: graph done, or
	// deadlock.
	pending atomic.Int64
	// initial is the buffer the initially-ready tasks are listed in; the
	// queues adopt it for the run.
	initial []*ptg.Instance
}

// Run is the package's Run on the runner's kept state.
func (r *Runner) Run(g *ptg.Graph, cfg Config) (Report, error) { return r.run(g, cfg, false) }

// RunRecorded is the package's RunRecorded on the runner's kept state.
func (r *Runner) RunRecorded(g *ptg.Graph, cfg Config) (Report, error) { return r.run(g, cfg, true) }

func (r *Runner) run(g *ptg.Graph, cfg Config, record bool) (Report, error) {
	tr := &r.tr
	if err := tr.Reset(g); err != nil {
		return Report{}, err
	}
	defer tr.Drop()
	if r.x == nil {
		r.x = NewExecutor(cfg, Hooks{Start: tr.Start, Complete: r.complete})
	} else {
		r.x.reset(cfg)
	}
	x := r.x
	if record {
		x.Record(tr.NumInstances())
	}

	// The initially-ready tasks arrive already in pop order (the plan's
	// skeleton sorted them once), so the queues adopt them as a run rather
	// than heaping them one push at a time.
	r.initial = tr.AppendInitialReady(r.initial[:0])
	r.pending.Store(int64(len(r.initial)))
	x.Preload(r.initial)
	if len(r.initial) == 0 {
		if !tr.Done() {
			// Nothing can ever become ready: no task has all inputs
			// satisfied and no completion will fire.
			return Report{Workers: len(x.ws), ByClass: map[string]int{}},
				fmt.Errorf("runtime: deadlock with %d tasks remaining", tr.Remaining())
		}
		x.Halt() // empty graph
	}

	err := x.Run()
	if err == nil {
		err = tr.CheckQuiescent()
	}
	return x.Report(), err
}

// complete is the run's Complete hook. One tracker lock acquisition
// covers the completion and every delivery it triggers.
func (r *Runner) complete(in *ptg.Instance, out []any, s *Scratch) error {
	var err error
	if s.Ready, err = r.tr.CompleteDeliver(in, out, s.Ready); err != nil {
		return err
	}
	// This task's pending token transfers to its successors: one net
	// update covers the -1 for completing and the +1 per ready
	// successor, so a chain step touches the counter not at all. The
	// increment lands before the executor makes the batch visible to
	// other workers, so pending only reaches zero at true quiescence:
	// nothing queued, nothing running.
	switch n := len(s.Ready); {
	case n > 1:
		r.pending.Add(int64(n - 1))
	case n == 0 && r.pending.Add(-1) == 0:
		if !r.tr.Done() {
			return fmt.Errorf("runtime: deadlock with %d tasks remaining", r.tr.Remaining())
		}
		r.x.Halt()
	}
	return nil
}
