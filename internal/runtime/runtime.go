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
// The distributed, simulated-machine counterpart is internal/simexec;
// both consume the same graphs, and both take every scheduling decision
// — pop order, queue pinning, steal-victim choice — from the shared
// core in internal/sched, which the conformance suite there proves they
// apply identically.
package runtime

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parsec/internal/ptg"
	"parsec/internal/sched"
	"parsec/internal/team"
	"parsec/internal/tensor/pool"
)

// ErrCanceled is the error Run returns when Config.Cancel fires before
// the graph completes. Task bodies already executing finish normally —
// cancellation is only observed between tasks — and every worker's
// scratch shard is drained before Run returns, so a canceled run leaks
// nothing. Callers distinguish cancellation from task failure with
// errors.Is.
var ErrCanceled = errors.New("runtime: run canceled")

// Event records one task execution for tracing.
type Event struct {
	Task   ptg.TaskRef
	Worker int
	Start  time.Duration // since Run began
	End    time.Duration
}

// Config controls a run.
type Config struct {
	// Workers is the number of worker goroutines; 0 means GOMAXPROCS.
	Workers int
	Policy  sched.Policy
	// Queues selects the ready-queue structure (default SharedQueue).
	Queues sched.QueueMode
	// Observer, if set, receives an Event after each task completes.
	// Called concurrently from workers; must be safe.
	Observer func(Event)
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
}

// String summarizes the run in one line.
func (r Report) String() string {
	return fmt.Sprintf("%d tasks on %d workers in %v (busy %v)", r.Tasks, r.Workers, r.Elapsed, r.BusyTime)
}

// shard is one mutex-protected ready deque. SharedQueue uses a single
// shard all workers pop from; the per-worker modes give each worker its
// own. The queue discipline (Before-ordered heap, or a LIFO stack for
// SharedQueue+LIFOOrder only) comes from the scheduling core.
type shard struct {
	mu       sync.Mutex
	q        sched.Queue
	maxDepth int
	// size is a lock-free emptiness hint for steal victim selection and
	// park rechecks. It is only written when the shard flips between
	// empty and nonempty, so steady-state pushes and pops pay no locked
	// instruction for it; between flips it may understate the depth but
	// never misreports emptiness.
	size atomic.Int64
	_    [40]byte // pad to a cache line against false sharing
}

// workerState holds one worker's parking slot and private counters.
// Counters are written only by the owning worker (or, for parked, via
// atomics) and read after all workers have joined.
type workerState struct {
	park      chan struct{} // buffered(1): wake tokens coalesce, never drop
	parked    atomic.Bool
	rng       sched.RNG
	tasks     int64
	parks     int64
	probes    int64 // steal attempts
	steals    int64
	busy      time.Duration
	parkedFor time.Duration // time spent blocked in park (coarse busy accounting)
	byClass   map[string]int
	scratch   []*ptg.Instance   // reusable ready-successor buffer
	buckets   [][]*ptg.Instance // reusable per-shard batch buckets
	// ctx and out are the execution context and Ctx.Out buffer of the
	// task this worker is running, reused from task to task (bodies must
	// not retain them, see ptg.Ctx); par is the worker's lending handle,
	// boxed once.
	ctx ptg.Ctx
	out []any
	par team.Parallelism
	// loc is the worker's scratch shard for pooled kernel buffers:
	// single-owner Get/Put cycles stay on this unsynchronized free list
	// instead of the shared size-class pool.
	loc *pool.Local
	// spans counts parallel regions this worker's tasks published;
	// helped counts span parts this worker ran for other workers' tasks.
	spans  int64
	helped int64
}

// Run executes the graph to completion and returns a report. Execution is
// aborted with an error if a task body panics or the graph deadlocks.
func Run(g *ptg.Graph, cfg Config) (Report, error) {
	tr, err := ptg.NewTracker(g)
	if err != nil {
		return Report{}, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nshards := workers
	if cfg.Queues == sched.SharedQueue {
		nshards = 1
	}

	r := &runner{
		tr:     tr,
		cfg:    cfg,
		shards: make([]shard, nshards),
		ws:     make([]workerState, workers),
		start:  time.Now(),
	}
	for i := range r.shards {
		r.shards[i].q = sched.NewQueue(cfg.Policy, cfg.Queues)
	}
	for i := range r.ws {
		r.ws[i].park = make(chan struct{}, 1)
		r.ws[i].rng = sched.NewRNG(i)
		r.ws[i].byClass = make(map[string]int)
		r.ws[i].loc = pool.NewLocal()
		r.ws[i].par = workerTeam{r: r, id: i}
	}

	initial := tr.InitialReady()
	r.pending.Store(int64(len(initial)))
	r.enqueueBatch(&r.ws[0], initial) // workers not yet started; safe to borrow
	if len(initial) == 0 {
		if !tr.Done() {
			// Nothing can ever become ready: no task has all inputs
			// satisfied and no completion will fire.
			return Report{Workers: workers, ByClass: map[string]int{}},
				fmt.Errorf("runtime: deadlock with %d tasks remaining", tr.Remaining())
		}
		r.stop.Store(true) // empty graph
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r.work(id)
		}(w)
	}
	if cfg.Cancel != nil {
		// The watcher halts the run on cancellation; closing watchDone
		// after the workers join releases it when the run wins the race.
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-cfg.Cancel:
				r.fail(ErrCanceled)
			case <-watchDone:
			}
		}()
	}
	wg.Wait()

	if r.err == nil {
		if qerr := tr.CheckQuiescent(); qerr != nil {
			r.err = qerr
		}
	}

	rep := Report{
		Tasks:   tr.NumInstances() - tr.Remaining(),
		ByClass: make(map[string]int),
		Workers: workers,
		Elapsed: time.Since(r.start),
		Sched:   SchedStats{PerWorkerTasks: make([]int64, workers)},
	}
	for i := range r.ws {
		ws := &r.ws[i]
		rep.BusyTime += ws.busy
		rep.Sched.PerWorkerTasks[i] = ws.tasks
		rep.Sched.Parks += ws.parks
		rep.Sched.StealAttempts += ws.probes
		rep.Sched.Steals += ws.steals
		rep.Sched.LendSpans += ws.spans
		rep.Sched.LendHelped += ws.helped
		for c, n := range ws.byClass {
			rep.ByClass[c] += n
		}
		ws.loc.Drain()
	}
	rep.Sched.Wakes = r.wakes.Load()
	for i := range r.shards {
		if d := r.shards[i].maxDepth; d > rep.Sched.MaxQueueDepth {
			rep.Sched.MaxQueueDepth = d
		}
	}
	return rep, r.err
}

type runner struct {
	tr  *ptg.Tracker
	cfg Config

	shards []shard
	ws     []workerState

	// pending counts tasks that are ready-queued or running: incremented
	// before a task is enqueued, decremented only after its completion
	// has enqueued every successor it made ready. The worker that drives
	// it to zero owns termination: graph done, or deadlock.
	pending atomic.Int64
	stop    atomic.Bool
	wakes   atomic.Int64
	// lend tracks intra-task parallel regions with unclaimed parts
	// (lend.go).
	lend lendState
	// nparked counts workers currently parked, letting enqueuers skip the
	// wake scan entirely when every worker is busy (the common case on a
	// loaded system). A worker increments it after publishing parked and
	// before its recheck; whoever flips parked back to false decrements.
	// Sequentially consistent atomics make this a Dekker pair with the
	// shard size mirrors: an enqueuer either sees the parker, or the
	// parker's recheck sees the enqueued work.
	nparked atomic.Int64

	errMu sync.Mutex
	err   error

	start time.Time
}

// shardFor returns the shard index a ready instance is pinned to (the
// core's static Seq-modulo assignment).
func (r *runner) shardFor(in *ptg.Instance) int {
	return sched.HomeQueue(in, len(r.shards))
}

// pushLocked appends an instance to a shard; the caller holds s.mu.
func (r *runner) pushLocked(si int, in *ptg.Instance) {
	s := &r.shards[si]
	depth := s.q.Push(in)
	if depth > s.maxDepth {
		s.maxDepth = depth
	}
	if depth == 1 {
		s.size.Store(1) // empty -> nonempty flip
	}
	r.observe(sched.OpEnqueue, -1, si, in)
}

// observe forwards one scheduling decision to the configured observer.
// Kept out of line from the nil check so the no-observer hot path pays
// a single branch.
func (r *runner) observe(op sched.Op, worker, queue int, in *ptg.Instance) {
	if obs := r.cfg.SchedObserver; obs != nil {
		obs(sched.Event{Op: op, Worker: worker, Queue: queue, Inst: in, Total: -1, Ts: r.Now()})
	}
}

// enqueue pushes a ready instance onto its shard and wakes a worker that
// can run it. Only the shard's own lock is held during the push.
func (r *runner) enqueue(in *ptg.Instance) {
	si := r.shardFor(in)
	s := &r.shards[si]
	s.mu.Lock()
	r.pushLocked(si, in)
	s.mu.Unlock()
	r.wakeFor(si)
}

// enqueueBatch pushes all successors released by one completion, locking
// each destination shard once rather than once per task, then wakes
// enough workers to absorb the batch. ws provides reusable per-shard
// buckets so the single grouping pass allocates nothing in steady state.
func (r *runner) enqueueBatch(ws *workerState, ins []*ptg.Instance) {
	if len(ins) == 0 {
		return
	}
	if len(ins) == 1 {
		r.enqueue(ins[0])
		return
	}
	nsh := len(r.shards)
	if nsh == 1 {
		s := &r.shards[0]
		s.mu.Lock()
		for _, in := range ins {
			r.pushLocked(0, in)
		}
		s.mu.Unlock()
	} else {
		if len(ws.buckets) != nsh {
			ws.buckets = make([][]*ptg.Instance, nsh)
		}
		for _, in := range ins {
			b := in.Seq % nsh
			ws.buckets[b] = append(ws.buckets[b], in)
		}
		for si, bucket := range ws.buckets {
			if len(bucket) == 0 {
				continue
			}
			s := &r.shards[si]
			s.mu.Lock()
			for _, in := range bucket {
				r.pushLocked(si, in)
			}
			s.mu.Unlock()
			ws.buckets[si] = bucket[:0]
		}
	}
	r.wakeBatch(len(ins))
}

// wakeBatch unparks workers after a batch push: in PerWorker mode each
// nonempty shard's owner (nobody else may run its tasks), otherwise any
// parked workers, at most one per new task.
func (r *runner) wakeBatch(n int) {
	if r.cfg.Queues == sched.PerWorker {
		for si := range r.shards {
			if r.nparked.Load() == 0 {
				return
			}
			if r.shards[si].size.Load() > 0 {
				r.wake(si)
			}
		}
		return
	}
	for w := 0; w < len(r.ws) && n > 0; w++ {
		if r.nparked.Load() == 0 {
			return
		}
		if r.wake(w) {
			n--
		}
	}
}

// wakeFor unparks a worker able to run work that just landed on shard
// si: the owner if it is parked, else (when other workers may take the
// task) any parked worker.
func (r *runner) wakeFor(si int) {
	if r.nparked.Load() == 0 {
		return // every worker is already running; nobody to wake
	}
	skip := -1 // in shared mode si indexes the lone shard, not a worker
	if r.cfg.Queues != sched.SharedQueue {
		if r.wake(si) {
			return
		}
		if r.cfg.Queues == sched.PerWorker {
			return // only the pinned owner may run it
		}
		skip = si
	}
	for w := range r.ws {
		if w != skip && r.wake(w) {
			return
		}
	}
}

// wake delivers an unpark token to worker w if it is parked. The CAS
// makes exactly one enqueuer responsible for the token.
func (r *runner) wake(w int) bool {
	ws := &r.ws[w]
	if ws.parked.CompareAndSwap(true, false) {
		r.nparked.Add(-1)
		r.wakes.Add(1)
		select {
		case ws.park <- struct{}{}:
		default:
		}
		return true
	}
	return false
}

// halt stops every worker: parked ones get a token, running ones see the
// flag when they next look for work.
func (r *runner) halt() {
	r.stop.Store(true)
	for i := range r.ws {
		select {
		case r.ws[i].park <- struct{}{}:
		default:
		}
	}
}

func (r *runner) fail(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	r.halt()
}

// popShard pops the best task from one shard, or nil.
func (r *runner) popShard(si int) *ptg.Instance {
	s := &r.shards[si]
	s.mu.Lock()
	in, left := s.q.Pop()
	if in != nil && left == 0 {
		s.size.Store(0) // nonempty -> empty flip
	}
	s.mu.Unlock()
	return in
}

// steal probes victims in the core's randomized order, locking only one
// victim shard at a time, and takes that victim's best task (PaRSEC
// steals ready work rather than rebalancing whole queues, §IV-D).
func (r *runner) steal(id int) *ptg.Instance {
	ws := &r.ws[id]
	var got *ptg.Instance
	sched.EachVictim(&ws.rng, id, len(r.shards), func(v int) bool {
		if r.shards[v].size.Load() == 0 {
			return false
		}
		ws.probes++
		if in := r.popShard(v); in != nil {
			ws.steals++
			got = in
			r.observe(sched.OpSteal, id, v, in)
			return true
		}
		return false
	})
	return got
}

// tryGet returns the next task for worker id: local pop first, then a
// randomized steal when the mode allows it.
func (r *runner) tryGet(id int) *ptg.Instance {
	own := id
	if r.cfg.Queues == sched.SharedQueue {
		own = 0
	}
	if in := r.popShard(own); in != nil {
		r.observe(sched.OpPop, id, own, in)
		return in
	}
	if r.cfg.Queues == sched.PerWorkerSteal {
		return r.steal(id)
	}
	return nil
}

// hasWork reports whether worker id could obtain a task right now,
// using the shards' lock-free size mirrors.
func (r *runner) hasWork(id int) bool {
	if r.cfg.Queues == sched.SharedQueue {
		return r.shards[0].size.Load() > 0
	}
	if r.shards[id].size.Load() > 0 {
		return true
	}
	if r.cfg.Queues == sched.PerWorkerSteal {
		for i := range r.shards {
			if r.shards[i].size.Load() > 0 {
				return true
			}
		}
	}
	return false
}

// The runner is the scheduling core's substrate on real hardware: the
// wall clock, and the park/unpark coordinator as the idle primitive.
var _ sched.Substrate = (*runner)(nil)

// Now returns nanoseconds since Run began (sched.Substrate).
func (r *runner) Now() int64 { return int64(time.Since(r.start)) }

// Idle parks the worker until an enqueuer wakes it (sched.Substrate).
func (r *runner) Idle(worker int) { r.park(worker) }

// Kick wakes a parked worker (sched.Substrate).
func (r *runner) Kick(worker int) { r.wake(worker) }

// park blocks worker id until an enqueuer wakes it or the run stops.
// Publishing parked before the recheck closes the race with enqueue:
// any push that the recheck misses happens after parked was visible, so
// that enqueuer's wake CAS succeeds and leaves a token in the channel.
func (r *runner) park(id int) {
	ws := &r.ws[id]
	ws.parks++
	ws.parked.Store(true)
	r.nparked.Add(1)
	if r.stop.Load() || r.hasWork(id) || r.hasHelp() {
		r.unparkSelf(ws)
		return
	}
	t0 := time.Now()
	<-ws.park
	ws.parkedFor += time.Since(t0)
	r.unparkSelf(ws)
}

// unparkSelf clears the worker's parked flag if no waker already claimed
// it; exactly one side of that race decrements nparked.
func (r *runner) unparkSelf(ws *workerState) {
	if ws.parked.CompareAndSwap(true, false) {
		r.nparked.Add(-1)
	}
}

func (r *runner) work(id int) {
	ws := &r.ws[id]
	t0 := time.Now()
	defer func() {
		// Without an Observer, busy is coarse: the worker's unparked
		// time. Per-task timestamping costs two clock reads per task —
		// measurable against sub-microsecond bodies — so the precise
		// accounting only runs when someone asked to see it.
		if r.cfg.Observer == nil {
			ws.busy = time.Since(t0) - ws.parkedFor
		}
	}()
	for {
		if r.stop.Load() {
			return
		}
		in := r.tryGet(id)
		if in == nil {
			// No ready task anywhere: volunteer for a published span
			// before sleeping — lending only ever recruits idle workers.
			if r.tryHelp(id) {
				continue
			}
			r.Idle(id)
			continue
		}
		if err := r.tr.Start(in); err != nil {
			r.fail(err)
			return
		}
		if err := r.execute(id, in); err != nil {
			r.fail(err)
			return
		}
	}
}

func (r *runner) execute(worker int, in *ptg.Instance) error {
	ws := &r.ws[worker]
	if cap(ws.out) < len(in.In) {
		ws.out = make([]any, len(in.In))
	}
	out := ws.out[:len(in.In)]
	copy(out, in.In)
	ctx := &ws.ctx
	*ctx = ptg.Ctx{Args: in.Ref.Args, Node: in.Node, Seq: in.Seq, In: in.In, Out: out, Pool: ws.loc, Par: ws.par}
	obs := r.cfg.Observer
	if delay := r.cfg.TaskDelay; delay != nil {
		if d := delay(worker, in.Ref); d > 0 {
			time.Sleep(d)
		}
	}
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
	}
	if body := in.Class.Body; body != nil {
		if err := safeBody(body, ctx, in); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("runtime: task %v failed: %w", in.Ref, err)
		}
	}
	var dur time.Duration
	if obs != nil {
		dur = time.Since(t0)
		ws.busy += dur
	}
	ws.byClass[in.Ref.Class]++
	ws.tasks++

	// Completion and successor activation synchronize on the tracker's
	// own lock, not on any scheduler structure. One lock acquisition
	// covers the completion and every delivery it triggers.
	ready, err := r.tr.CompleteDeliver(in, ctx.Out, ws.scratch[:0])
	clear(out) // the successors hold the payloads now; do not pin them here
	if err != nil {
		return err
	}
	// This task's pending token transfers to its successors: one net
	// update covers the -1 for completing and the +1 per ready successor,
	// so a chain step touches the counter not at all. The increment side
	// lands before the batch is visible to other workers, so pending only
	// reaches zero at true quiescence: nothing queued, nothing running.
	switch n := len(ready); {
	case n > 1:
		r.pending.Add(int64(n - 1))
		r.enqueueBatch(ws, ready)
	case n == 1:
		r.enqueue(ready[0])
	default:
		if r.pending.Add(-1) == 0 {
			if r.tr.Done() {
				r.halt()
			} else {
				r.fail(fmt.Errorf("runtime: deadlock with %d tasks remaining", r.tr.Remaining()))
			}
		}
	}
	ws.scratch = ready[:0]

	if obs != nil {
		obs(Event{Task: in.Ref, Worker: worker, Start: t0.Sub(r.start), End: t0.Add(dur).Sub(r.start)})
	}
	return nil
}

func safeBody(body func(*ptg.Ctx), ctx *ptg.Ctx, in *ptg.Instance) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("runtime: task %v panicked: %v", in.Ref, rec)
		}
	}()
	body(ctx)
	return nil
}
