package netrun

import (
	"fmt"
	"time"

	"sync"

	"parsec/internal/ptg"
	"parsec/internal/sched"
	"parsec/internal/team"
	"parsec/internal/tensor/pool"
)

// engine is one rank's local executor: the shared scheduling core
// driving real worker goroutines, with completions routed either into
// the rank-local tracker or onto the wire. It mirrors the shared-memory
// runtime's semantics — same pop order, same queue pinning, same
// randomized victim probe — but trades that runtime's sharded locks for
// one engine mutex: a rank here owns a slice of the graph, not the
// whole machine, so contention is not the design constraint and the
// simplicity pays for itself in the recovery paths.
type engine struct {
	cfg   Config
	rank  int
	tp    *transport
	tr    *ptg.Tracker
	start time.Time

	mu   sync.Mutex
	cond *sync.Cond
	set  *sched.Set
	rngs []sched.RNG
	// locals are the per-worker scratch shards for pooled kernel
	// buffers (task bodies reach them through Ctx.Pool). Intra-task
	// parallelism (Ctx.Par) is wired to team.Serial: a rank's workers
	// are few and remote steals already balance coarse work, so bodies
	// get an explicit one-worker contract (GemmP degenerates to the
	// serial kernel bitwise) instead of a nil they must guard against.
	locals  []*pool.Local
	stopped bool
	failed  error
	stopCh  chan struct{}
	// owned marks the ranks whose instances this engine schedules: its
	// own, plus any dead rank it inherited.
	owned []bool
	// adopted marks instances migrated here by an inter-node steal; they
	// execute here although their affinity names another rank.
	adopted map[*ptg.Instance]bool
	// migratedTo records instances this rank handed to a thief, for
	// re-claim if the thief dies before completing them.
	migratedTo map[*ptg.Instance]int
	takenOver  map[int]bool
	// queued marks instances ever pushed here. An instance becomes ready
	// exactly once, so a second push is always a duplicate-source race
	// (an heir's takeover scan against a concurrent replayed activation,
	// say) and is dropped; the one legitimate re-push — re-claiming a
	// task from a dead thief — clears the mark first.
	queued    map[*ptg.Instance]bool
	lastSteal int64 // Now() of the last steal request
	// doneSeqs are completed instances not yet reported to the
	// coordinator: they leave as one msgDone when doneBatch have
	// gathered, when a worker finds the queue dry, or on the heartbeat.
	doneSeqs []int

	tasks       int
	byClass     map[string]int
	adoptedN    int
	redisp      int
	redispBytes int64
	traceEvs    []RankTraceEvent

	wg sync.WaitGroup
}

// doneBatch is the completion count that forces a msgDone out.
const doneBatch = 64

func newEngine(cfg Config, rank int, tp *transport, tr *ptg.Tracker) *engine {
	e := &engine{
		cfg:        cfg,
		rank:       rank,
		tp:         tp,
		tr:         tr,
		start:      time.Now(),
		rngs:       make([]sched.RNG, cfg.Workers),
		locals:     make([]*pool.Local, cfg.Workers),
		stopCh:     make(chan struct{}),
		owned:      make([]bool, cfg.Ranks),
		adopted:    make(map[*ptg.Instance]bool),
		migratedTo: make(map[*ptg.Instance]int),
		takenOver:  make(map[int]bool),
		queued:     make(map[*ptg.Instance]bool),
		byClass:    make(map[string]int),
	}
	e.cond = sync.NewCond(&e.mu)
	e.owned[rank] = true
	for w := range e.rngs {
		e.rngs[w] = sched.NewRNG(w)
		e.locals[w] = pool.NewLocal()
	}
	e.set = sched.NewSet(cfg.Workers, cfg.Policy, cfg.Queues, e, cfg.SchedObserver)
	return e
}

// The engine is the scheduling core's substrate on this rank.
var _ sched.Substrate = (*engine)(nil)

// Now returns nanoseconds since the engine started (sched.Substrate).
func (e *engine) Now() int64 { return int64(time.Since(e.start)) }

// Idle is unused: engine workers wait on the condition variable
// directly, under the same mutex that guards the set (sched.Substrate).
func (e *engine) Idle(worker int) {}

// Kick wakes the workers (sched.Substrate).
func (e *engine) Kick(worker int) { e.cond.Broadcast() }

// run pushes this rank's initially ready instances and starts the
// worker goroutines and the heartbeat.
func (e *engine) run() {
	e.mu.Lock()
	for _, in := range e.tr.InitialReady() {
		if in.Node == e.rank {
			e.pushLocked(in)
		}
	}
	e.mu.Unlock()
	for w := 0; w < e.cfg.Workers; w++ {
		e.wg.Add(1)
		go e.workLoop(w)
	}
	e.wg.Add(1)
	go e.heartbeat()
}

// stop halts the workers and the heartbeat; it does not wait.
func (e *engine) stop() {
	e.mu.Lock()
	if !e.stopped {
		e.stopped = true
		close(e.stopCh)
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// wait joins the worker goroutines after stop and returns their scratch
// shards to the shared pool.
func (e *engine) wait() {
	e.wg.Wait()
	for _, loc := range e.locals {
		loc.Drain()
	}
}

// fail records the first fatal error, halts the rank, and reports the
// failure to the coordinator.
func (e *engine) fail(err error) {
	e.mu.Lock()
	if e.failed != nil || e.stopped {
		e.mu.Unlock()
		return
	}
	e.failed = err
	e.mu.Unlock()
	e.stop()
	e.tp.sendTo(coordRank, errorMsg{Text: err.Error()}.encode())
}

// err returns the recorded fatal error, if any.
func (e *engine) err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failed
}

// push enqueues a ready instance (at most once, see queued) and wakes
// the workers.
func (e *engine) push(in *ptg.Instance) {
	e.mu.Lock()
	e.pushLocked(in)
	e.mu.Unlock()
}

func (e *engine) pushLocked(in *ptg.Instance) {
	if !e.stopped && !e.queued[in] {
		e.queued[in] = true
		e.set.Push(in)
		e.cond.Broadcast()
	}
}

// popLocked takes the next task for a worker: own queue first, then —
// in PerWorkerSteal mode — the core's randomized victim probe. The
// caller holds e.mu, which substitutes for the runtime's shard locks.
func (e *engine) popLocked(wid int) *ptg.Instance {
	if in := e.set.Pop(wid); in != nil {
		return in
	}
	if e.cfg.Queues != sched.PerWorkerSteal {
		return nil
	}
	var got *ptg.Instance
	sched.EachVictim(&e.rngs[wid], wid, e.set.Queues(), func(v int) bool {
		if in := e.set.PopQueue(v, wid); in != nil {
			got = in
			return true
		}
		return false
	})
	return got
}

// shouldStealLocked reports whether this rank should ask the
// coordinator to broker an inter-node steal: stealing enabled, nothing
// runnable locally, and not already asked within the last few
// milliseconds (idle workers re-evaluate on every heartbeat kick).
func (e *engine) shouldStealLocked() bool {
	if !e.cfg.InterNodeSteal || e.cfg.Ranks < 2 || e.stopped {
		return false
	}
	if e.set.Total() > 0 {
		return false
	}
	now := e.Now()
	if now-e.lastSteal < int64(5*time.Millisecond) {
		return false
	}
	e.lastSteal = now
	return true
}

func (e *engine) workLoop(wid int) {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		if e.stopped {
			e.mu.Unlock()
			return
		}
		in := e.popLocked(wid)
		if in == nil {
			done, steal := e.takeDoneLocked(), e.shouldStealLocked()
			if done == nil && !steal {
				e.cond.Wait()
				e.mu.Unlock()
				continue
			}
			e.mu.Unlock()
			if done != nil {
				e.tp.sendTo(coordRank, done)
			}
			if steal {
				e.tp.sendTo(coordRank, stealMsg{Thief: e.rank}.encode(msgStealReq))
			}
			continue
		}
		e.mu.Unlock()
		if err := e.tr.ClaimStart(in); err != nil {
			e.fail(err)
			return
		}
		e.execute(wid, in)
	}
}

// execute runs one task body and routes its completions: local
// successors through the tracker, remote successors as activation
// messages, and the instance's sequence number to the coordinator's
// termination bitset, batched (see doneSeqs). The sequence number joins
// its batch only after the payload sends, so the Done that carries it
// is ordered after them on purpose — the coordinator's flush barrier
// then guarantees every accumulation is server-side before the energy
// is read.
func (e *engine) execute(wid int, in *ptg.Instance) {
	ctx := &ptg.Ctx{
		Args: in.Ref.Args,
		Node: in.Node,
		Seq:  in.Seq,
		In:   in.In,
		Out:  make([]any, len(in.In)),
		Pool: e.locals[wid],
		Par:  team.Serial,
	}
	copy(ctx.Out, in.In)
	if delay := e.cfg.TaskDelay; delay != nil {
		if d := delay(e.rank, wid, in.Ref); d > 0 {
			time.Sleep(d)
		}
	}
	startNs := e.Now()
	if body := in.Class.Body; body != nil {
		if err := runBody(body, ctx, in); err != nil {
			e.fail(err)
			return
		}
		if err := ctx.Err(); err != nil {
			e.fail(fmt.Errorf("netrun: task %v failed: %w", in.Ref, err))
			return
		}
	}
	endNs := e.Now()

	dels, _, err := e.tr.Complete(in)
	if err != nil {
		e.fail(err)
		return
	}
	for _, d := range dels {
		payload := ctx.Out[d.FromFlow]
		if e.owns(d.To.Node) {
			e.deliver(d.To, d.ToFlow, payload)
		} else {
			e.sendActivate(d.To, d.ToFlow, payload)
		}
	}

	e.mu.Lock()
	e.tasks++
	e.byClass[in.Ref.Class]++
	e.traceEvs = append(e.traceEvs, RankTraceEvent{
		Thread: wid, Class: in.Ref.Class, Label: in.Ref.String(),
		StartNs: startNs, EndNs: endNs,
	})
	e.doneSeqs = append(e.doneSeqs, in.Seq)
	var done []byte
	if len(e.doneSeqs) >= doneBatch {
		done = e.takeDoneLocked()
	}
	e.mu.Unlock()
	if done != nil {
		e.tp.sendTo(coordRank, done)
	}
}

// takeDoneLocked encodes the gathered completions as one msgDone frame
// and empties the batch; nil when there is nothing to report.
func (e *engine) takeDoneLocked() []byte {
	if len(e.doneSeqs) == 0 {
		return nil
	}
	f := doneMsg{Seqs: e.doneSeqs}.encode()
	e.doneSeqs = e.doneSeqs[:0]
	return f
}

func runBody(body func(*ptg.Ctx), ctx *ptg.Ctx, in *ptg.Instance) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("netrun: task %v panicked: %v", in.Ref, rec)
		}
	}()
	body(ctx)
	return nil
}

// owns reports whether this engine schedules instances of the given
// affinity rank.
func (e *engine) owns(node int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return node >= 0 && node < len(e.owned) && e.owned[node]
}

// deliver satisfies one input of a locally scheduled instance,
// tolerating duplicates: an at-least-once wire and post-takeover
// replays legitimately present the same payload twice, and the
// DeliveredFlow pre-check (re-checked after a Deliver error, in case
// two sources raced past the first check) filters them out before the
// tracker treats them as protocol errors.
func (e *engine) deliver(to *ptg.Instance, flow int, payload any) {
	if e.tr.DeliveredFlow(to, flow) {
		return
	}
	ready, err := e.tr.Deliver(to, flow, payload)
	if err != nil {
		if e.tr.DeliveredFlow(to, flow) || e.tr.StateOf(to) != ptg.StateWaiting {
			return // lost a duplicate race; already satisfied elsewhere
		}
		e.fail(err)
		return
	}
	if ready && e.owns(to.Node) {
		e.push(to)
	}
}

// sendActivate ships one dataflow payload to the rank owning the
// consumer (through the takeover routing table).
func (e *engine) sendActivate(to *ptg.Instance, flow int, payload any) {
	f, err := (activateMsg{Class: to.Ref.Class, Args: to.Ref.Args, Flow: flow, Payload: payload}).encode()
	if err != nil {
		e.fail(fmt.Errorf("netrun: activate %v: %w", to.Ref, err))
		return
	}
	e.tp.counters.transferOps.Add(1)
	e.tp.counters.transferBytes.Add(int64(len(f) - frameHeaderLen))
	e.tp.sendTo(to.Node, f)
}

// heartbeat reports the rank's backlog (and any completions still
// waiting for a batch) to the coordinator on every interval and kicks
// the workers so idle ranks re-evaluate the steal request condition.
func (e *engine) heartbeat() {
	defer e.wg.Done()
	t := time.NewTicker(e.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-e.stopCh:
			return
		case <-t.C:
			e.mu.Lock()
			backlog, done := e.set.Total(), e.takeDoneLocked()
			e.cond.Broadcast()
			e.mu.Unlock()
			if done != nil {
				e.tp.sendTo(coordRank, done)
			}
			e.tp.sendTo(coordRank, statusMsg{Backlog: backlog}.encode())
		}
	}
}

// handleActivate applies one inbound activation.
func (e *engine) handleActivate(m activateMsg) {
	in := e.tr.Instance(ptg.TaskRef{Class: m.Class, Args: m.Args})
	if in == nil {
		e.fail(fmt.Errorf("netrun: activation for unknown task %s%v", m.Class, m.Args))
		return
	}
	e.deliver(in, m.Flow, m.Payload)
}

// handleStealProbe serves a coordinator-forwarded steal on the victim
// side: if the backlog still exceeds what the local workers can drain,
// the best migratable ready task is claimed (Started, so nobody here
// re-runs it), shipped to the thief with its delivered task-sourced
// inputs, and remembered for re-claim should the thief die.
func (e *engine) handleStealProbe(thief int) {
	migratable := e.cfg.Migratable
	e.mu.Lock()
	if e.stopped || migratable == nil || e.set.Total() <= e.cfg.Workers {
		e.mu.Unlock()
		e.tp.sendTo(coordRank, stealMsg{Thief: thief}.encode(msgStealNone))
		return
	}
	in := e.set.PopWhere(func(c *ptg.Instance) bool {
		return c.Node == e.rank && !e.adopted[c] && migratable(c.Ref.Class)
	})
	if in == nil {
		e.mu.Unlock()
		e.tp.sendTo(coordRank, stealMsg{Thief: thief}.encode(msgStealNone))
		return
	}
	if err := e.tr.ClaimStart(in); err != nil {
		// The set never holds a non-ready instance; a failure here is a
		// scheduling invariant break, not a race to absorb.
		e.mu.Unlock()
		e.fail(err)
		return
	}
	e.migratedTo[in] = thief
	e.redisp++
	e.mu.Unlock()

	m := migrateMsg{Class: in.Ref.Class, Args: in.Ref.Args}
	for fi := range in.In {
		if e.tr.TaskSourced(in, fi) && e.tr.DeliveredFlow(in, fi) {
			m.Ins = append(m.Ins, migratePayload{Flow: fi, Payload: in.In[fi]})
		}
	}
	f, err := m.encode()
	if err != nil {
		e.fail(fmt.Errorf("netrun: migrate %v: %w", in.Ref, err))
		return
	}
	bodyLen := int64(len(f) - frameHeaderLen)
	e.mu.Lock()
	e.redispBytes += bodyLen
	e.mu.Unlock()
	e.tp.counters.transferOps.Add(1)
	e.tp.counters.transferBytes.Add(bodyLen)
	e.tp.sendTo(thief, f)
}

// handleMigrate adopts a task stolen from a loaded rank: deliver the
// shipped inputs this rank is missing, mark it adopted so a takeover
// scan will not double-schedule it, and queue it.
func (e *engine) handleMigrate(m migrateMsg) {
	in := e.tr.Instance(ptg.TaskRef{Class: m.Class, Args: m.Args})
	if in == nil {
		e.fail(fmt.Errorf("netrun: migration of unknown task %s%v", m.Class, m.Args))
		return
	}
	switch e.tr.StateOf(in) {
	case ptg.StateRunning, ptg.StateDone:
		return // duplicate or raced with local execution
	}
	for _, p := range m.Ins {
		if e.tr.DeliveredFlow(in, p.Flow) {
			continue
		}
		if _, err := e.tr.Deliver(in, p.Flow, p.Payload); err != nil && !e.tr.DeliveredFlow(in, p.Flow) {
			e.fail(err)
			return
		}
	}
	if e.tr.StateOf(in) != ptg.StateReady {
		// The victim only migrates ready tasks, so arriving here means the
		// shipped inputs were incomplete.
		e.fail(fmt.Errorf("netrun: migrated task %v not ready after delivery", in.Ref))
		return
	}
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	if !e.adopted[in] {
		e.adopted[in] = true
		e.adoptedN++
		e.pushLocked(in)
	}
	e.mu.Unlock()
}

// handleTakeover reacts to a rank death on every surviving rank:
// re-route the dead rank's traffic to the heir and replay the retained
// activation log there; re-claim any task migrated to the dead rank;
// and, on the heir itself, inherit the dead rank's slice of the graph
// and queue everything in it that is (or later becomes) ready. The
// heir re-executes the dead rank's entire subgraph from its roots —
// completions the dead rank already reported stay deduplicated
// downstream by the tracker flows and the GA server tags.
func (e *engine) handleTakeover(m takeoverMsg) {
	e.mu.Lock()
	if e.takenOver[m.Dead] {
		e.mu.Unlock()
		return
	}
	e.takenOver[m.Dead] = true
	reclaim := make([]*ptg.Instance, 0)
	for in, thief := range e.migratedTo {
		if thief == m.Dead {
			reclaim = append(reclaim, in)
			delete(e.migratedTo, in)
		}
	}
	e.mu.Unlock()

	for _, f := range e.tp.redirect(m.Dead, m.Heir) {
		if e.rank == m.Heir {
			// Our own retained traffic for the dead rank is now ours to
			// apply; there is no loopback channel to send it through.
			am, err := decodeActivate(f[frameHeaderLen:])
			if err != nil {
				e.fail(err)
				return
			}
			e.handleActivate(am)
			continue
		}
		// Replay a copy: the dead rank's stopped channel may still be
		// inside a write of these bytes, and the heir's channel restamps
		// the header.
		e.tp.sendTo(m.Heir, append([]byte(nil), f...))
	}

	for _, in := range reclaim {
		if err := e.tr.Reset(in); err != nil {
			e.fail(err)
			return
		}
		e.mu.Lock()
		delete(e.queued, in) // legitimate re-push: the thief died with it
		e.pushLocked(in)
		e.mu.Unlock()
	}

	if e.rank != m.Heir {
		return
	}
	e.mu.Lock()
	e.owned[m.Dead] = true
	e.mu.Unlock()
	for _, in := range e.tr.Instances() {
		if in.Node != m.Dead {
			continue
		}
		e.mu.Lock()
		skip := e.adopted[in]
		e.mu.Unlock()
		if skip {
			continue // already queued (or run) here via migration
		}
		if e.tr.StateOf(in) == ptg.StateReady {
			e.push(in)
		}
	}
}

// report assembles the rank's final self-report.
func (e *engine) report() RankReport {
	e.mu.Lock()
	defer e.mu.Unlock()
	return RankReport{
		Rank:            e.rank,
		Tasks:           e.tasks,
		ByClass:         e.byClass,
		Adopted:         e.adoptedN,
		Redispatches:    e.redisp,
		RedispatchBytes: e.redispBytes,
		Comm:            e.tp.counters.snapshot(),
		Trace:           e.traceEvs,
	}
}
