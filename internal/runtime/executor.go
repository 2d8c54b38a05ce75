package runtime

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parsec/internal/ptg"
	"parsec/internal/sched"
	"parsec/internal/team"
	"parsec/internal/tensor/pool"
	"parsec/internal/trace"
)

// Hooks are the only points where an embedder's semantics enter the
// Executor. Run supplies the whole-graph tracker and pending-token
// termination; a netrun rank supplies its slice of a distributed graph
// and a transport; the DTD engine supplies the DAG it discovered.
// Everything about running ready instances on goroutines is the
// executor's and is the same for all three.
type Hooks struct {
	// Start claims a popped instance before its body runs; an error
	// fails the run (the scheduler handed out something not ready).
	Start func(in *ptg.Instance) error
	// Complete is called on the worker once in's body has returned, with
	// the body's Ctx.Out. It performs the dataflow the completion
	// triggers and appends to ready (an empty scratch buffer the worker
	// reuses) the instances it made ready that this executor should run;
	// the executor enqueues them. It is also where the embedder decides
	// the run is over and calls Halt. An error fails the run.
	Complete func(in *ptg.Instance, out []any, ready []*ptg.Instance) ([]*ptg.Instance, error)
	// Dry, if set, is called by a worker whose search for work — own
	// queue, steal, lending — came up empty, just before it parks.
	Dry func()
}

// shard is one mutex-protected ready deque. SharedQueue uses a single
// shard all workers pop from; the per-worker modes give each worker its
// own. The queue discipline (Before order — a preloaded sorted run
// merged with a heap — or a LIFO stack for SharedQueue+LIFOOrder only)
// comes from the scheduling core.
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
	parkedFor time.Duration     // time spent blocked in park (coarse busy accounting)
	byClass   []classCount      // tasks run per class, indexed by ptg.TaskClass.Index
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
	// rec is the worker's span buffer in a recorded run (Record): one
	// trace.Span per task this worker executed, in execution order,
	// appended only by this worker. A helper running a lent part of
	// another worker's task executes no task and so appends nothing.
	rec []trace.Span
}

// classCount is one worker's task count for one class; the name is kept
// beside it so Report can key ByClass without knowing the graph.
type classCount struct {
	name string
	n    int
}

// Executor runs ready task instances on worker goroutines: sharded
// ready queues ordered by the scheduling core, park/unpark, the
// randomized steal, worker lending, per-worker Ctx and scratch reuse,
// and body failure capture. It knows nothing about where instances come
// from or what completing one means — that is the embedder's Hooks —
// so the same loop serves the whole-graph Run, each rank of the socket
// runtime (internal/netrun) and the DTD engine (internal/dtd).
type Executor struct {
	cfg   Config
	hooks Hooks

	shards []shard
	ws     []workerState

	stop  atomic.Bool
	wakes atomic.Int64
	// lend tracks intra-task parallel regions with unclaimed parts
	// (lend.go).
	lend lendState
	// nparked counts workers currently parked, letting enqueuers skip the
	// wake scan entirely when every worker is busy (the common case on a
	// loaded system). A worker increments it after publishing parked and
	// before its recheck; whoever flips parked back to false decrements.
	// Sequentially consistent atomics make this a Dekker pair with the
	// shard size mirrors: an enqueuer — a worker or a foreign goroutine in
	// Push — either sees the parker, or the parker's recheck sees the
	// enqueued work.
	nparked atomic.Int64

	errMu sync.Mutex
	err   error

	start time.Time
	// record is set by Record; timed says each task is stamped at both
	// ends, which an Observer or a recorded run asks for.
	record, timed bool
}

// NewExecutor returns an idle executor configured by cfg (Workers,
// Policy, Queues, the observers, TaskDelay, Cancel). Instances may be
// pushed before Run starts the workers.
func NewExecutor(cfg Config, hooks Hooks) *Executor {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	nshards := cfg.Workers
	if cfg.Queues == sched.SharedQueue {
		nshards = 1
	}
	x := &Executor{
		cfg:    cfg,
		hooks:  hooks,
		shards: make([]shard, nshards),
		ws:     make([]workerState, cfg.Workers),
		start:  time.Now(),
		timed:  cfg.Observer != nil,
	}
	for i := range x.shards {
		x.shards[i].q = sched.NewQueue(cfg.Policy, cfg.Queues)
	}
	for i := range x.ws {
		x.ws[i].park = make(chan struct{}, 1)
		x.ws[i].rng = sched.NewRNG(i)
		x.ws[i].loc = pool.NewLocal()
		x.ws[i].par = workerTeam{x: x, id: i}
	}
	return x
}

// Record turns span recording on for the coming Run: every worker keeps
// a trace.Span per task it executes in a buffer of its own — no lock,
// no formatting, no pointer — and Report hands them back. n is the
// number of task executions the embedder expects of this executor (a
// whole-graph run's instance count, a rank's share of it); the buffers
// are sized from it once, so a balanced run appends without growing.
func (x *Executor) Record(n int) {
	x.record, x.timed = true, true
	per := (n+n/4)/len(x.ws) + 16
	for i := range x.ws {
		x.ws[i].rec = make([]trace.Span, 0, per)
	}
}

// Run starts the workers and blocks until Halt or a failure stops them,
// then returns the run's first error: a body panic or Ctx.Fail, a hook
// error, an external Fail, or ErrCanceled. Bodies already executing
// when the run stops finish first, and every worker's scratch shard is
// drained before Run returns.
func (x *Executor) Run() error {
	var wg sync.WaitGroup
	for w := range x.ws {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			x.work(id)
		}(w)
	}
	// The cancel watcher is joined before the error is read: a
	// cancellation that lands after the workers have stopped is ignored
	// by Fail rather than relabeling a finished run.
	var watcher sync.WaitGroup
	quit := make(chan struct{})
	if x.cfg.Cancel != nil {
		watcher.Add(1)
		go func() {
			defer watcher.Done()
			select {
			case <-x.cfg.Cancel:
				x.Fail(ErrCanceled)
			case <-quit:
			}
		}()
	}
	wg.Wait()
	close(quit)
	watcher.Wait()
	for i := range x.ws {
		x.ws[i].loc.Drain()
	}
	return x.Err()
}

// Report summarizes the run's scheduling counters; call it after Run
// has returned.
func (x *Executor) Report() Report {
	rep := Report{
		ByClass: make(map[string]int),
		Workers: len(x.ws),
		Elapsed: time.Since(x.start),
		Sched:   SchedStats{PerWorkerTasks: make([]int64, len(x.ws)), Wakes: x.wakes.Load()},
	}
	for i := range x.ws {
		ws := &x.ws[i]
		rep.Tasks += int(ws.tasks)
		rep.BusyTime += ws.busy
		rep.Sched.PerWorkerTasks[i] = ws.tasks
		rep.Sched.Parks += ws.parks
		rep.Sched.StealAttempts += ws.probes
		rep.Sched.Steals += ws.steals
		rep.Sched.LendSpans += ws.spans
		rep.Sched.LendHelped += ws.helped
		for _, c := range ws.byClass {
			if c.n > 0 {
				rep.ByClass[c.name] += c.n
			}
		}
	}
	for i := range x.shards {
		if d := x.shards[i].maxDepth; d > rep.Sched.MaxQueueDepth {
			rep.Sched.MaxQueueDepth = d
		}
	}
	if x.record {
		rep.Spans = make([]trace.Span, 0, rep.Tasks)
		for i := range x.ws {
			rep.Spans = append(rep.Spans, x.ws[i].rec...)
		}
	}
	return rep
}

// pushLocked appends an instance to a shard; the caller holds s.mu.
func (x *Executor) pushLocked(si int, in *ptg.Instance) {
	s := &x.shards[si]
	depth := s.q.Push(in)
	if depth > s.maxDepth {
		s.maxDepth = depth
	}
	if depth == 1 {
		s.size.Store(1) // empty -> nonempty flip
	}
	x.observe(sched.OpEnqueue, -1, si, in)
}

// observe forwards one scheduling decision to the configured observer.
// Kept out of line from the nil check so the no-observer hot path pays
// a single branch.
func (x *Executor) observe(op sched.Op, worker, queue int, in *ptg.Instance) {
	if obs := x.cfg.SchedObserver; obs != nil {
		obs(sched.Event{Op: op, Worker: worker, Queue: queue, Inst: in, Total: -1, Ts: int64(time.Since(x.start))})
	}
}

// Push enqueues a ready instance on its home shard (the core's static
// Seq-modulo pinning) and wakes a worker that can run it. Only the
// shard's own lock is held during the push, and it is safe from any
// goroutine: a rank's message handlers push activations that arrive
// while every worker is parked.
func (x *Executor) Push(in *ptg.Instance) {
	si := sched.HomeQueue(in, len(x.shards))
	s := &x.shards[si]
	s.mu.Lock()
	x.pushLocked(si, in)
	s.mu.Unlock()
	x.wakeFor(si)
}

// Preload enqueues a Before-sorted run of ready instances — a plan's
// initially-ready tasks, ordered once by its skeleton — without pushing
// them one at a time: each shard adopts the sub-run homed on it (a
// sub-sequence of a sorted run is sorted) under one lock acquisition.
// The executor takes ownership of the slice. Like Push it is safe from
// any goroutine, also before Run.
func (x *Executor) Preload(run []*ptg.Instance) {
	if len(run) == 0 {
		return
	}
	if nsh := len(x.shards); nsh == 1 {
		x.preloadShard(0, run)
	} else {
		subs := make([][]*ptg.Instance, nsh)
		for si := range subs {
			subs[si] = make([]*ptg.Instance, 0, len(run)/nsh+1)
		}
		for _, in := range run {
			si := sched.HomeQueue(in, nsh)
			subs[si] = append(subs[si], in)
		}
		for si, sub := range subs {
			if len(sub) > 0 {
				x.preloadShard(si, sub)
			}
		}
	}
	x.wakeBatch(len(run))
}

// preloadShard hands one shard its nonempty sub-run.
func (x *Executor) preloadShard(si int, run []*ptg.Instance) {
	s := &x.shards[si]
	s.mu.Lock()
	depth := s.q.Preload(run)
	if depth > s.maxDepth {
		s.maxDepth = depth
	}
	s.size.Store(1)
	if x.cfg.SchedObserver != nil {
		for _, in := range run {
			x.observe(sched.OpEnqueue, -1, si, in)
		}
	}
	s.mu.Unlock()
}

// handOff enqueues the successors one completion made ready and takes
// the completing worker's next task in the same critical section of its
// own shard, so a task costs one queue hand-off instead of a push and a
// later pop. What the worker takes is exactly what pushing everything
// and then popping would have given it, and the observer sees that
// push-then-pop; only the lock acquisitions are saved. A single
// successor that would be popped straight back (Queue.PopsNext) never
// touches the queue at all. Because the worker keeps one task for
// itself, one fewer worker is woken than tasks were made ready. It
// returns nil when nothing ready is homed on the worker's shard; the
// worker then looks for work the ordinary way.
func (x *Executor) handOff(id int, ws *workerState, ready []*ptg.Instance) *ptg.Instance {
	own, nsh := x.ownShard(id), len(x.shards)
	switch {
	case len(ready) == 0:
		return nil
	case len(ready) == 1 && sched.HomeQueue(ready[0], nsh) != own:
		x.Push(ready[0])
		return nil
	}
	mine := ready
	if nsh > 1 && len(ready) > 1 {
		mine = x.pushForeign(ws, ready, own)
	}
	if len(mine) == 0 {
		x.wakeBatch(len(ready))
		return nil
	}
	var next *ptg.Instance
	s := &x.shards[own]
	s.mu.Lock()
	if len(mine) == 1 && s.q.PopsNext(mine[0]) {
		next = mine[0]
		// It counts as having been queued for an instant.
		if d := s.q.Len() + 1; d > s.maxDepth {
			s.maxDepth = d
		}
		x.observe(sched.OpEnqueue, -1, own, next)
	} else {
		for _, in := range mine {
			x.pushLocked(own, in)
		}
		var left int
		if next, left = s.q.Pop(); left == 0 {
			s.size.Store(0)
		}
	}
	x.observe(sched.OpPop, id, own, next)
	s.mu.Unlock()
	if len(ready) > 1 {
		x.wakeBatch(len(ready) - 1)
	}
	return next
}

// pushForeign pushes the instances homed on shards other than own, one
// lock acquisition per destination shard, and returns the ones homed on
// own (valid until the worker's next hand-off). ws provides reusable
// per-shard buckets so the grouping pass allocates nothing in steady
// state.
func (x *Executor) pushForeign(ws *workerState, ins []*ptg.Instance, own int) []*ptg.Instance {
	nsh := len(x.shards)
	if len(ws.buckets) != nsh {
		ws.buckets = make([][]*ptg.Instance, nsh)
	}
	for _, in := range ins {
		b := sched.HomeQueue(in, nsh)
		ws.buckets[b] = append(ws.buckets[b], in)
	}
	mine := ws.buckets[own]
	for si, bucket := range ws.buckets {
		ws.buckets[si] = bucket[:0]
		if si == own || len(bucket) == 0 {
			continue
		}
		s := &x.shards[si]
		s.mu.Lock()
		for _, in := range bucket {
			x.pushLocked(si, in)
		}
		s.mu.Unlock()
	}
	return mine
}

// wakeBatch unparks workers after a batch push: in PerWorker mode each
// nonempty shard's owner (nobody else may run its tasks), otherwise any
// parked workers, at most one per new task.
func (x *Executor) wakeBatch(n int) {
	if x.cfg.Queues == sched.PerWorker {
		for si := range x.shards {
			if x.nparked.Load() == 0 {
				return
			}
			if x.shards[si].size.Load() > 0 {
				x.wake(si)
			}
		}
		return
	}
	for w := 0; w < len(x.ws) && n > 0; w++ {
		if x.nparked.Load() == 0 {
			return
		}
		if x.wake(w) {
			n--
		}
	}
}

// wakeFor unparks a worker able to run work that just landed on shard
// si: the owner if it is parked, else (when other workers may take the
// task) any parked worker.
func (x *Executor) wakeFor(si int) {
	if x.nparked.Load() == 0 {
		return // every worker is already running; nobody to wake
	}
	skip := -1 // in shared mode si indexes the lone shard, not a worker
	if x.cfg.Queues != sched.SharedQueue {
		if x.wake(si) {
			return
		}
		if x.cfg.Queues == sched.PerWorker {
			return // only the pinned owner may run it
		}
		skip = si
	}
	for w := range x.ws {
		if w != skip && x.wake(w) {
			return
		}
	}
}

// wake delivers an unpark token to worker w if it is parked. The CAS
// makes exactly one enqueuer responsible for the token.
func (x *Executor) wake(w int) bool {
	ws := &x.ws[w]
	if ws.parked.CompareAndSwap(true, false) {
		x.nparked.Add(-1)
		x.wakes.Add(1)
		select {
		case ws.park <- struct{}{}:
		default:
		}
		return true
	}
	return false
}

// Halt stops every worker: parked ones get a token, running ones see the
// flag when they next look for work. Queued instances stay queued.
func (x *Executor) Halt() {
	x.stop.Store(true)
	for i := range x.ws {
		select {
		case x.ws[i].park <- struct{}{}:
		default:
		}
	}
}

// Fail records err as the run's error and halts, reporting whether it
// did: only the first failure counts, and a failure arriving after the
// executor was halted is ignored — the run's outcome was already
// decided.
func (x *Executor) Fail(err error) bool {
	x.errMu.Lock()
	first := x.err == nil && !x.stop.Load()
	if first {
		x.err = err
	}
	x.errMu.Unlock()
	if first {
		x.Halt()
	}
	return first
}

// Err returns the recorded failure, if any.
func (x *Executor) Err() error {
	x.errMu.Lock()
	defer x.errMu.Unlock()
	return x.err
}

// popShard pops the best task from one shard, or nil.
func (x *Executor) popShard(si int) *ptg.Instance {
	s := &x.shards[si]
	s.mu.Lock()
	in, left := s.q.Pop()
	if in != nil && left == 0 {
		s.size.Store(0) // nonempty -> empty flip
	}
	s.mu.Unlock()
	return in
}

// TakeWhere removes and returns the Before-best queued instance
// satisfying ok, or nil: the pick behind an inter-node steal, which may
// only move some classes, so queues are scanned whole. It holds every
// shard lock for the scan (ok must not call back into the executor);
// workers hold one at a time, so the fixed order cannot deadlock.
func (x *Executor) TakeWhere(ok func(*ptg.Instance) bool) *ptg.Instance {
	for i := range x.shards {
		x.shards[i].mu.Lock()
	}
	defer func() {
		for i := range x.shards {
			x.shards[i].mu.Unlock()
		}
	}()
	var best *ptg.Instance
	bq, bi := -1, -1
	for si := range x.shards {
		if in, i := x.shards[si].q.FindWhere(ok); in != nil && (best == nil || sched.Before(in, best)) {
			best, bq, bi = in, si, i
		}
	}
	if best == nil {
		return nil
	}
	s := &x.shards[bq]
	s.q.RemoveAt(bi)
	if s.q.Len() == 0 {
		s.size.Store(0)
	}
	x.observe(sched.OpSteal, -1, bq, best)
	return best
}

// Backlog returns the number of queued instances. It locks each shard
// in turn, so it is for heartbeat-rate callers, not the dispatch path.
func (x *Executor) Backlog() int {
	n := 0
	for i := range x.shards {
		s := &x.shards[i]
		s.mu.Lock()
		n += s.q.Len()
		s.mu.Unlock()
	}
	return n
}

// steal probes victims in the core's randomized order, locking only one
// victim shard at a time, and takes that victim's best task (PaRSEC
// steals ready work rather than rebalancing whole queues, §IV-D).
func (x *Executor) steal(id int) *ptg.Instance {
	ws := &x.ws[id]
	var got *ptg.Instance
	sched.EachVictim(&ws.rng, id, len(x.shards), func(v int) bool {
		if x.shards[v].size.Load() == 0 {
			return false
		}
		ws.probes++
		if in := x.popShard(v); in != nil {
			ws.steals++
			got = in
			x.observe(sched.OpSteal, id, v, in)
			return true
		}
		return false
	})
	return got
}

// ownShard is the shard worker id pops from: its own, or the lone one.
func (x *Executor) ownShard(id int) int {
	if len(x.shards) == 1 {
		return 0
	}
	return id
}

// tryGet returns the next task for worker id: local pop first, then a
// randomized steal when the mode allows it.
func (x *Executor) tryGet(id int) *ptg.Instance {
	own := x.ownShard(id)
	if in := x.popShard(own); in != nil {
		x.observe(sched.OpPop, id, own, in)
		return in
	}
	if x.cfg.Queues == sched.PerWorkerSteal {
		return x.steal(id)
	}
	return nil
}

// hasWork reports whether worker id could obtain a task right now,
// using the shards' lock-free size mirrors.
func (x *Executor) hasWork(id int) bool {
	if x.cfg.Queues == sched.SharedQueue {
		return x.shards[0].size.Load() > 0
	}
	if x.shards[id].size.Load() > 0 {
		return true
	}
	if x.cfg.Queues == sched.PerWorkerSteal {
		for i := range x.shards {
			if x.shards[i].size.Load() > 0 {
				return true
			}
		}
	}
	return false
}

// park blocks worker id until an enqueuer wakes it or the run stops.
// Publishing parked before the recheck closes the race with Push:
// any push that the recheck misses happens after parked was visible, so
// that enqueuer's wake CAS succeeds and leaves a token in the channel.
func (x *Executor) park(id int) {
	ws := &x.ws[id]
	ws.parks++
	ws.parked.Store(true)
	x.nparked.Add(1)
	if x.stop.Load() || x.hasWork(id) || x.hasHelp() {
		x.unparkSelf(ws)
		return
	}
	t0 := time.Now()
	<-ws.park
	ws.parkedFor += time.Since(t0)
	x.unparkSelf(ws)
}

// unparkSelf clears the worker's parked flag if no waker already claimed
// it; exactly one side of that race decrements nparked.
func (x *Executor) unparkSelf(ws *workerState) {
	if ws.parked.CompareAndSwap(true, false) {
		x.nparked.Add(-1)
	}
}

func (x *Executor) work(id int) {
	ws := &x.ws[id]
	t0 := time.Now()
	defer func() {
		// Untimed, busy is coarse: the worker's unparked time. Per-task
		// timestamping costs two clock reads per task — measurable
		// against sub-microsecond bodies — so the precise accounting
		// only runs when someone asked to see it.
		if !x.timed {
			ws.busy = time.Since(t0) - ws.parkedFor
		}
	}()
	// in is the task the previous completion handed this worker
	// (handOff), or nil when it has to go looking.
	var in *ptg.Instance
	for {
		if x.stop.Load() {
			if in != nil {
				// The run stopped while the task was in hand: it was never
				// started, so it goes back where a taker can find it.
				si := x.ownShard(id)
				x.shards[si].mu.Lock()
				x.pushLocked(si, in)
				x.shards[si].mu.Unlock()
			}
			return
		}
		if in == nil {
			if in = x.tryGet(id); in == nil {
				// No ready task anywhere: volunteer for a published span
				// before sleeping — lending only ever recruits idle workers.
				if x.tryHelp(id) {
					continue
				}
				if x.hooks.Dry != nil {
					x.hooks.Dry()
				}
				x.park(id)
				continue
			}
		}
		err := x.hooks.Start(in)
		if err == nil {
			in, err = x.execute(id, in)
		}
		if err != nil {
			x.Fail(err)
			return
		}
	}
}

// execute runs one started instance to completion and returns the task
// the worker should run next, if the completion handed it one.
func (x *Executor) execute(worker int, in *ptg.Instance) (*ptg.Instance, error) {
	ws := &x.ws[worker]
	if cap(ws.out) < len(in.In) {
		ws.out = make([]any, len(in.In))
	}
	out := ws.out[:len(in.In)]
	copy(out, in.In)
	ctx := &ws.ctx
	*ctx = ptg.Ctx{Args: in.Ref.Args, Node: in.Node, Seq: in.Seq, In: in.In, Out: out, Pool: ws.loc, Par: ws.par}
	if delay := x.cfg.TaskDelay; delay != nil {
		if d := delay(worker, in.Ref); d > 0 {
			time.Sleep(d)
		}
	}
	// Both ends of a task are offsets from x.start on the monotonic
	// clock: one clock read each, no wall-clock read.
	timed := x.timed
	var t0, t1 time.Duration
	if timed {
		t0 = time.Since(x.start)
	}
	if body := in.Class.Body; body != nil {
		if err := safeBody(body, ctx, in); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("runtime: task %v failed: %w", in.Ref, err)
		}
	}
	if timed {
		t1 = time.Since(x.start)
		ws.busy += t1 - t0
	}
	ci := in.Class.Index()
	for ci >= len(ws.byClass) {
		ws.byClass = append(ws.byClass, classCount{})
	}
	c := &ws.byClass[ci]
	if c.n == 0 {
		c.name = in.Ref.Class
	}
	c.n++
	ws.tasks++

	// Completion synchronizes on the embedder's own structures (the
	// tracker's lock), never on a scheduler one.
	ready, err := x.hooks.Complete(in, ctx.Out, ws.scratch[:0])
	clear(out) // the successors hold the payloads now; do not pin them here
	if err != nil {
		return nil, err
	}
	next := x.handOff(worker, ws, ready)
	ws.scratch = ready[:0]

	if timed {
		if x.record {
			ws.rec = append(ws.rec, trace.Span{Seq: uint32(in.Seq), Worker: uint32(worker), Start: int64(t0), End: int64(t1)})
		}
		if obs := x.cfg.Observer; obs != nil {
			obs(Event{Task: in.Ref, Seq: in.Seq, Worker: worker, Start: t0, End: t1})
		}
	}
	return next, nil
}

// safeBody runs one task body, turning a panic into the run's error.
func safeBody(body func(*ptg.Ctx), ctx *ptg.Ctx, in *ptg.Instance) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("runtime: task %v panicked: %v", in.Ref, rec)
		}
	}()
	body(ctx)
	return nil
}
