package netrun

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/tensor"
)

// engine is the rank side of one rank's execution. Running ready
// instances on goroutines — queues, park/unpark, the intra-rank steal,
// worker lending, Ctx reuse, body failure capture — is runtime.Executor,
// the same worker loop the shared-memory runtime.Run drives. The engine
// supplies only what makes it a rank: which instances it schedules
// (owned, adopted, migratedTo, the queued marks), where a completion's
// payloads go (the rank-local tracker or the wire), who returns a tile
// that came off the wire (the wired marks), completion reporting to the
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
	// marks is one word per instance, indexed by Seq, set and cleared
	// with compare-and-swap so that neither a push nor a completion takes
	// mu. Bit queuedBit marks an instance ever pushed here: an instance
	// becomes ready exactly once, so a second push is always a
	// duplicate-source race (an heir's takeover scan against a concurrent
	// replayed activation, say) and is dropped; the one legitimate
	// re-push — re-claiming a task from a dead thief — clears the mark
	// first. Bit f below it marks input flow f as wire-delivered: its
	// payload is a pooled tile decoded from an activation, which this
	// rank returns to the pool when the instance completes (returnWired).
	marks []atomic.Uint32
	// owned is the snapshot of which ranks' instances this engine
	// schedules — its own, plus any dead rank it inherited — indexed by
	// rank. It is replaced, never written, and only by handleTakeover.
	owned atomic.Pointer[[]bool]
	// mu guards the rank bookkeeping below; no scheduling happens under
	// it. It may be held while calling into the executor, never the
	// reverse.
	mu sync.Mutex
	// adopted marks instances migrated here by an inter-node steal; they
	// execute here although their affinity names another rank.
	adopted map[*ptg.Instance]bool
	// migratedTo records instances this rank handed to a thief, for
	// re-claim if the thief dies before completing them.
	migratedTo map[*ptg.Instance]int
	takenOver  map[int]bool
	lastSteal  time.Time // of the last steal request
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

// queuedBit is the marks bit for "pushed here"; the bits below it are
// the wire-delivered flows (a tracker has at most 32 flows per class,
// and one landing on bit 31 is simply left to the collector).
const (
	queuedBit  = 31
	wiredFlows = uint32(1)<<queuedBit - 1
)

// mark sets one bit of an instance's marks word and reports whether it
// was clear. go.mod's language version predates atomic.OrUint32.
func (e *engine) mark(in *ptg.Instance, bit uint) (fresh bool) {
	w := &e.marks[in.Seq]
	for {
		old := w.Load()
		if old&(1<<bit) != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|1<<bit) {
			return true
		}
	}
}

// unmark clears the given bits of an instance's marks word.
func (e *engine) unmark(in *ptg.Instance, bits uint32) {
	w := &e.marks[in.Seq]
	for {
		old := w.Load()
		if old&bits == 0 || w.CompareAndSwap(old, old&^bits) {
			return
		}
	}
}

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
		marks:      make([]atomic.Uint32, tr.NumInstances()),
		adopted:    make(map[*ptg.Instance]bool),
		migratedTo: make(map[*ptg.Instance]int),
		takenOver:  make(map[int]bool),
	}
	owned := make([]bool, cfg.Ranks)
	owned[rank] = true
	e.owned.Store(&owned)
	xcfg := runtime.Config{
		Workers:       cfg.Workers,
		Policy:        cfg.Policy,
		Queues:        cfg.Queues,
		SchedObserver: cfg.SchedObserver,
	}
	if delay := cfg.TaskDelay; delay != nil {
		xcfg.TaskDelay = func(worker int, ref ptg.TaskRef) time.Duration { return delay(rank, worker, ref) }
	}
	// Claims go through the tracker's lock: message handlers (steal
	// probes, takeover scans) read and claim instance state concurrently
	// with the workers.
	e.ex = runtime.NewExecutor(xcfg, runtime.Hooks{Start: tr.ClaimStart, Complete: e.complete, Dry: e.dry})
	// Every rank records: its spans are the binary section of its final
	// report. A rank expects its share of the graph.
	e.ex.Record(tr.NumInstances() / cfg.Ranks)
	return e
}

// run hands the executor this rank's initially ready instances — its
// share of the run the plan's skeleton already sorted, so the queues
// adopt it as runtime.Run's do — and starts the executor and the
// heartbeat.
func (e *engine) run() {
	initial := e.tr.InitialReadySorted()
	mine := initial[:0]
	for _, in := range initial {
		if in.Node == e.rank && e.mark(in, queuedBit) {
			mine = append(mine, in)
		}
	}
	e.ex.Preload(mine)
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

// push enqueues a ready instance, at most once (see marks).
func (e *engine) push(in *ptg.Instance) {
	if e.mark(in, queuedBit) {
		e.ex.Push(in)
	}
}

// complete is the executor's completion hook: it routes a finished
// task's payloads — local successors through the tracker, remote ones as
// activation messages — returns the wire-delivered inputs the task did
// not pass on, returns the local successors that became ready for the
// executor to enqueue, and adds the instance's sequence number to the
// batch bound for the coordinator's termination bitset (see doneSeqs).
// The sequence number joins its batch only after the payload sends, so
// the Done that carries it is ordered after them on purpose — the
// coordinator's flush barrier then guarantees every accumulation is
// server-side before the energy is read.
func (e *engine) complete(in *ptg.Instance, out []any, ready []*ptg.Instance) ([]*ptg.Instance, error) {
	// Every worker runs this hook at once, so there is no one buffer to
	// reuse: each call gets a fresh Delivery slice.
	dels, _, err := e.tr.Complete(in, nil)
	if err != nil {
		return ready, err
	}
	for _, d := range dels {
		payload := out[d.FromFlow]
		if !e.owns(d.To.Node) {
			if err := e.sendActivate(d.To, d.ToFlow, payload, soleDelivery(dels, out, d)); err != nil {
				return ready, err
			}
			continue
		}
		_, became, err := e.deliver(d.To, d.ToFlow, payload)
		if err != nil {
			return ready, err
		}
		if became && e.mark(d.To, queuedBit) {
			ready = append(ready, d.To)
		}
	}
	if wired := e.marks[in.Seq].Load() & wiredFlows; wired != 0 {
		e.returnWired(in, wired, dels, out)
	}

	e.mu.Lock()
	e.doneSeqs = append(e.doneSeqs, in.Seq)
	var done []byte
	if len(e.doneSeqs) >= doneBatch {
		done = e.takeDoneLocked()
	}
	e.mu.Unlock()
	if done != nil {
		e.tp.sendTo(coordRank, done)
	}
	return ready, nil
}

// carriers counts the deliveries of a finished task whose payload is the
// tile t.
func carriers(dels []ptg.Delivery, out []any, t *tensor.Tile4) (n int) {
	for _, d := range dels {
		if o, ok := out[d.FromFlow].(*tensor.Tile4); ok && o == t {
			n++
		}
	}
	return n
}

// soleDelivery reports whether the payload of delivery d is a tile that
// no other delivery of the finished task carries: then, once the task's
// Out buffer is cleared, nothing on this rank can reach the tile through
// the graph, and a remote send may borrow it instead of copying it.
func soleDelivery(dels []ptg.Delivery, out []any, d ptg.Delivery) bool {
	t, ok := out[d.FromFlow].(*tensor.Tile4)
	return ok && t != nil && carriers(dels, out, t) == 1
}

// returnWired gives back to the tile pool every input of a finished
// task that arrived off the wire (wired is its marks word's flow bits),
// unless the task handed the tile on: a tile that one of the deliveries
// carries now belongs to that consumer — or, sent by reference, is on
// loan to a channel. A body that released an input itself has cleared
// its In slot (ptg.Ctx), which is how a tile is never returned twice.
func (e *engine) returnWired(in *ptg.Instance, wired uint32, dels []ptg.Delivery, out []any) {
	for fi := range in.In {
		if wired&(1<<uint(fi)) == 0 {
			continue
		}
		t, _ := in.In[fi].(*tensor.Tile4)
		if t == nil || carriers(dels, out, t) > 0 {
			e.tp.counters.tilesPassedOn.Add(1)
			continue
		}
		in.In[fi] = nil
		tensor.PutTile4(t)
		e.tp.counters.tilesReturned.Add(1)
	}
	e.unmark(in, wired)
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
	owned := *e.owned.Load()
	return node >= 0 && node < len(owned) && owned[node]
}

// deliver satisfies one input of an instance, reporting whether the
// instance took the payload and whether that made it ready to run here.
// It tolerates duplicates: an at-least-once wire and post-takeover
// replays legitimately present the same payload twice, and the
// DeliveredFlow pre-check (re-checked after a Deliver error, in case two
// sources raced past the first check) filters them out before the
// tracker treats them as protocol errors.
func (e *engine) deliver(to *ptg.Instance, flow int, payload any) (took, ready bool, err error) {
	if e.tr.DeliveredFlow(to, flow) {
		return false, false, nil
	}
	ready, err = e.tr.Deliver(to, flow, payload)
	if err != nil {
		if e.tr.DeliveredFlow(to, flow) || e.tr.StateOf(to) != ptg.StateWaiting {
			return false, false, nil // lost a duplicate race; already satisfied elsewhere
		}
		return false, false, err
	}
	return true, ready && e.owns(to.Node), nil
}

// sendActivate ships one dataflow payload to the rank owning the
// consumer (through the takeover routing table). With borrow set — the
// caller knows nothing here will touch the payload again — a tile goes
// by reference: only the frame head is built, and the channel writes
// the floats from the tile itself.
func (e *engine) sendActivate(to *ptg.Instance, flow int, payload any, borrow bool) error {
	m := activateMsg{Class: to.Ref.Class, Args: to.Ref.Args, Flow: flow, Payload: payload}
	var f outFrame
	if borrow {
		f, borrow = m.encodeRef()
	}
	if borrow {
		e.tp.counters.tilesBorrowed.Add(1)
	} else {
		b, err := m.encode()
		if err != nil {
			return fmt.Errorf("netrun: activate %v: %w", to.Ref, err)
		}
		f = outFrame{head: b}
	}
	e.tp.counters.transferOps.Add(1)
	e.tp.counters.transferBytes.Add(int64(f.size() - frameHeaderLen))
	e.tp.sendFrame(to.Node, f)
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

// handleActivate applies one inbound activation. A tile payload is a
// pooled tile (decodeActivate) this rank now owes the pool: if the
// instance takes it, the flow is marked wire-delivered and the tile goes
// back when the instance completes; a duplicate goes back at once.
func (e *engine) handleActivate(m activateMsg) {
	in := e.tr.Instance(ptg.TaskRef{Class: m.Class, Args: m.Args})
	if in == nil {
		e.fail(fmt.Errorf("netrun: activation for unknown task %s%v", m.Class, m.Args))
		return
	}
	took, ready, err := e.deliver(in, m.Flow, m.Payload)
	if t, ok := m.Payload.(*tensor.Tile4); ok {
		e.tp.counters.tilesReceived.Add(1)
		switch {
		case !took:
			tensor.PutTile4(t)
			e.tp.counters.tilesDuplicate.Add(1)
		case m.Flow < queuedBit:
			e.mark(in, uint(m.Flow))
		}
	}
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
			// apply; there is no loopback channel to send it through. It
			// is decoded from the frame's bytes like any arrival, so a
			// borrowed tile is copied into a pooled one here and the
			// consumer's completion returns that, never the original.
			am, err := decodeActivate(f.bytes()[frameHeaderLen:])
			if err != nil {
				e.fail(err)
				return
			}
			e.handleActivate(am)
			continue
		}
		// Replay a copy of the head: the dead rank's stopped channel may
		// still be inside a write of these bytes, and the heir's channel
		// restamps the header. A borrowed tail is only ever read, so both
		// channels share it.
		e.tp.sendFrame(m.Heir, outFrame{head: append([]byte(nil), f.head...), tail: f.tail})
	}

	for _, in := range reclaim {
		if err := e.tr.Reset(in); err != nil {
			e.fail(err)
			return
		}
		e.unmark(in, 1<<queuedBit) // legitimate re-push: the thief died with it
		e.push(in)
	}

	if e.rank != m.Heir {
		return
	}
	owned := append([]bool(nil), *e.owned.Load()...)
	owned[m.Dead] = true
	e.owned.Store(&owned)
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
	return RankReport{
		Rank:            e.rank,
		Tasks:           x.Tasks,
		ByClass:         x.ByClass,
		Adopted:         e.adoptedN,
		Redispatches:    e.redisp,
		RedispatchBytes: e.redispBytes,
		Comm:            e.tp.counters.snapshot(),
		Spans:           x.Spans,
	}
}
