package netrun

import (
	"fmt"
	"sync"
	"time"

	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/trace"
)

// engine is the rank side of one rank's execution. Running ready
// instances on goroutines — queues, park/unpark, the intra-rank steal,
// worker lending, Ctx reuse, body failure capture — is runtime.Executor,
// the same worker loop the shared-memory runtime.Run drives. The engine
// supplies only what makes it a rank: which instances it schedules
// (owned, adopted, migratedTo, queued), where a completion's payloads go
// (the rank-local tracker or the wire), completion reporting to the
// coordinator's termination bitset, the heartbeat, and the inter-node
// steal, migrate and takeover handlers.
type engine struct {
	cfg  Config
	rank int
	tp   *transport
	tr   *ptg.Tracker
	ex   *runtime.Executor

	stopOnce sync.Once
	stopCh   chan struct{}
	failOnce sync.Once
	wg       sync.WaitGroup
	// traces holds one event list per executor worker, each appended to
	// only by that worker (the executor's Observer runs on it).
	traces [][]trace.Event

	// mu guards the rank bookkeeping below; no scheduling happens under
	// it. It may be held while calling into the executor, never the
	// reverse.
	mu sync.Mutex
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
	lastSteal time.Time // of the last steal request
	// doneSeqs are completed instances not yet reported to the
	// coordinator: they leave as one msgDone when doneBatch have
	// gathered, when a worker runs dry, or on the heartbeat.
	doneSeqs []int

	adoptedN    int
	redisp      int
	redispBytes int64
}

// doneBatch is the completion count that forces a msgDone out.
const doneBatch = 64

// stealInterval is the least time between two steal requests of one
// rank, however many of its workers run dry.
const stealInterval = 5 * time.Millisecond

func newEngine(cfg Config, rank int, tp *transport, tr *ptg.Tracker) *engine {
	e := &engine{
		cfg:        cfg,
		rank:       rank,
		tp:         tp,
		tr:         tr,
		stopCh:     make(chan struct{}),
		traces:     make([][]trace.Event, cfg.Workers),
		owned:      make([]bool, cfg.Ranks),
		adopted:    make(map[*ptg.Instance]bool),
		migratedTo: make(map[*ptg.Instance]int),
		takenOver:  make(map[int]bool),
		queued:     make(map[*ptg.Instance]bool),
	}
	e.owned[rank] = true
	xcfg := runtime.Config{
		Workers:       cfg.Workers,
		Policy:        cfg.Policy,
		Queues:        cfg.Queues,
		SchedObserver: cfg.SchedObserver,
		Observer: func(ev runtime.Event) {
			e.traces[ev.Worker] = append(e.traces[ev.Worker], trace.Event{
				Thread: ev.Worker, Class: ev.Task.Class, Label: ev.Task.String(),
				Start: int64(ev.Start), End: int64(ev.End),
			})
		},
	}
	if delay := cfg.TaskDelay; delay != nil {
		xcfg.TaskDelay = func(worker int, ref ptg.TaskRef) time.Duration { return delay(rank, worker, ref) }
	}
	// Claims go through the tracker's lock: message handlers (steal
	// probes, takeover scans) read and claim instance state concurrently
	// with the workers.
	e.ex = runtime.NewExecutor(xcfg, runtime.Hooks{Start: tr.ClaimStart, Complete: e.complete, Dry: e.dry})
	return e
}

// run pushes this rank's initially ready instances and starts the
// executor and the heartbeat.
func (e *engine) run() {
	for _, in := range e.tr.InitialReady() {
		if in.Node == e.rank {
			e.push(in)
		}
	}
	e.wg.Add(2)
	go func() {
		defer e.wg.Done()
		// A body panic or Ctx.Fail, or a completion error, stops the
		// workers from inside; this is where the rank learns of it.
		if err := e.ex.Run(); err != nil {
			e.abort(err)
		}
	}()
	go e.heartbeat()
}

// stop halts the workers and the heartbeat; it does not wait.
func (e *engine) stop() {
	e.stopOnce.Do(func() { close(e.stopCh) })
	e.ex.Halt()
}

// wait joins the executor and the heartbeat after stop.
func (e *engine) wait() { e.wg.Wait() }

// fail records the first fatal error, halts the rank, and reports the
// failure to the coordinator. Failures after the rank stopped are
// dropped.
func (e *engine) fail(err error) {
	if e.ex.Fail(err) {
		e.abort(err)
	}
}

// abort stops the rank and tells the coordinator why, once.
func (e *engine) abort(err error) {
	e.failOnce.Do(func() {
		e.stop()
		e.tp.sendTo(coordRank, errorMsg{Text: err.Error()}.encode())
	})
}

// err returns the recorded fatal error, if any.
func (e *engine) err() error { return e.ex.Err() }

// push enqueues a ready instance, at most once (see queued).
func (e *engine) push(in *ptg.Instance) {
	e.mu.Lock()
	fresh := !e.queued[in]
	e.queued[in] = true
	e.mu.Unlock()
	if fresh {
		e.ex.Push(in)
	}
}

// complete is the executor's completion hook: it routes a finished
// task's payloads — local successors through the tracker, remote ones as
// activation messages — returns the local successors that became ready
// for the executor to enqueue, and adds the instance's sequence number
// to the batch bound for the coordinator's termination bitset (see
// doneSeqs). The sequence number joins its batch only after the payload
// sends, so the Done that carries it is ordered after them on purpose —
// the coordinator's flush barrier then guarantees every accumulation is
// server-side before the energy is read.
func (e *engine) complete(in *ptg.Instance, out []any, ready []*ptg.Instance) ([]*ptg.Instance, error) {
	dels, _, err := e.tr.Complete(in)
	if err != nil {
		return ready, err
	}
	for _, d := range dels {
		if !e.owns(d.To.Node) {
			if err := e.sendActivate(d.To, d.ToFlow, out[d.FromFlow]); err != nil {
				return ready, err
			}
			continue
		}
		became, err := e.deliver(d.To, d.ToFlow, out[d.FromFlow])
		if err != nil {
			return ready, err
		}
		if became {
			ready = append(ready, d.To)
		}
	}

	e.mu.Lock()
	fresh := ready[:0]
	for _, to := range ready {
		if !e.queued[to] {
			e.queued[to] = true
			fresh = append(fresh, to)
		}
	}
	e.doneSeqs = append(e.doneSeqs, in.Seq)
	var done []byte
	if len(e.doneSeqs) >= doneBatch {
		done = e.takeDoneLocked()
	}
	e.mu.Unlock()
	if done != nil {
		e.tp.sendTo(coordRank, done)
	}
	return fresh, nil
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

// dry is the executor's came-up-dry hook, also run on every heartbeat
// (parked workers do not re-evaluate anything): flush the gathered
// completions, and — with inter-node stealing on, nothing queued here,
// and no request within stealInterval — ask the coordinator to broker a
// steal.
func (e *engine) dry() {
	e.mu.Lock()
	done := e.takeDoneLocked()
	steal := e.cfg.InterNodeSteal && e.cfg.Ranks >= 2 &&
		time.Since(e.lastSteal) >= stealInterval && e.ex.Backlog() == 0
	if steal {
		e.lastSteal = time.Now()
	}
	e.mu.Unlock()
	if done != nil {
		e.tp.sendTo(coordRank, done)
	}
	if steal {
		e.tp.sendTo(coordRank, stealMsg{Thief: e.rank}.encode(msgStealReq))
	}
}

// owns reports whether this engine schedules instances of the given
// affinity rank.
func (e *engine) owns(node int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return node >= 0 && node < len(e.owned) && e.owned[node]
}

// deliver satisfies one input of an instance and reports whether that
// made it ready to run here. It tolerates duplicates: an at-least-once
// wire and post-takeover replays legitimately present the same payload
// twice, and the DeliveredFlow pre-check (re-checked after a Deliver
// error, in case two sources raced past the first check) filters them
// out before the tracker treats them as protocol errors.
func (e *engine) deliver(to *ptg.Instance, flow int, payload any) (bool, error) {
	if e.tr.DeliveredFlow(to, flow) {
		return false, nil
	}
	ready, err := e.tr.Deliver(to, flow, payload)
	if err != nil {
		if e.tr.DeliveredFlow(to, flow) || e.tr.StateOf(to) != ptg.StateWaiting {
			return false, nil // lost a duplicate race; already satisfied elsewhere
		}
		return false, err
	}
	return ready && e.owns(to.Node), nil
}

// sendActivate ships one dataflow payload to the rank owning the
// consumer (through the takeover routing table).
func (e *engine) sendActivate(to *ptg.Instance, flow int, payload any) error {
	f, err := (activateMsg{Class: to.Ref.Class, Args: to.Ref.Args, Flow: flow, Payload: payload}).encode()
	if err != nil {
		return fmt.Errorf("netrun: activate %v: %w", to.Ref, err)
	}
	e.tp.counters.transferOps.Add(1)
	e.tp.counters.transferBytes.Add(int64(len(f) - frameHeaderLen))
	e.tp.sendTo(to.Node, f)
	return nil
}

// heartbeat reports the rank's backlog to the coordinator on every
// interval, after giving a dry rank the chance to flush completions and
// re-ask for a steal.
func (e *engine) heartbeat() {
	defer e.wg.Done()
	t := time.NewTicker(e.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-e.stopCh:
			return
		case <-t.C:
			e.dry()
			e.tp.sendTo(coordRank, statusMsg{Backlog: e.ex.Backlog()}.encode())
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
	ready, err := e.deliver(in, m.Flow, m.Payload)
	if err != nil {
		e.fail(err)
	} else if ready {
		e.push(in)
	}
}

// handleStealProbe serves a coordinator-forwarded steal on the victim
// side: if the backlog still exceeds what the local workers can drain,
// the best migratable ready task is claimed (Started, so nobody here
// re-runs it), shipped to the thief with its delivered task-sourced
// inputs, and remembered for re-claim should the thief die.
func (e *engine) handleStealProbe(thief int) {
	migratable := e.cfg.Migratable
	var in *ptg.Instance
	e.mu.Lock()
	if migratable != nil && e.ex.Backlog() > e.cfg.Workers {
		in = e.ex.TakeWhere(func(c *ptg.Instance) bool {
			return c.Node == e.rank && !e.adopted[c] && migratable(c.Ref.Class)
		})
	}
	if in == nil {
		e.mu.Unlock()
		e.tp.sendTo(coordRank, stealMsg{Thief: thief}.encode(msgStealNone))
		return
	}
	if err := e.tr.ClaimStart(in); err != nil {
		// The queues never hold a non-ready instance; a failure here is a
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
	fresh := !e.adopted[in]
	if fresh {
		e.adopted[in] = true
		e.adoptedN++
	}
	e.mu.Unlock()
	if fresh {
		e.push(in)
	}
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
		e.mu.Unlock()
		e.push(in)
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

// report assembles the rank's final self-report; the executor must
// have been joined (wait).
func (e *engine) report() RankReport {
	x := e.ex.Report()
	e.mu.Lock() // message handlers may still be counting re-dispatches
	defer e.mu.Unlock()
	rep := RankReport{
		Rank:            e.rank,
		Tasks:           x.Tasks,
		ByClass:         x.ByClass,
		Adopted:         e.adoptedN,
		Redispatches:    e.redisp,
		RedispatchBytes: e.redispBytes,
		Comm:            e.tp.counters.snapshot(),
	}
	for _, evs := range e.traces {
		rep.Trace = append(rep.Trace, evs...)
	}
	return rep
}
