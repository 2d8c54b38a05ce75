package netrun

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parsec/internal/ga"
	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/tensor"
)

// engine is the rank side of one rank's execution. Running ready
// instances on goroutines — queues, park/unpark, the intra-rank steal,
// worker lending, Ctx reuse, body failure capture — is runtime.Executor,
// the same worker loop the shared-memory runtime.Run drives. The engine
// supplies only what makes it a rank: which instances it schedules
// (owned, the queued marks), where a completion's payloads go (the
// rank-local tracker or the wire), which input blocks a peer already
// holds (shipped), who returns a tile that came off the wire (the wired
// marks), completion reporting to the coordinator's termination bitset,
// the heartbeat, and the takeover handler.
type engine struct {
	cfg  Config
	rank int
	tp   *transport
	tr   *ptg.Tracker
	ex   *runtime.Executor
	// gac is the rank's GA client on a CCSD job, nil on a generic graph:
	// its input replicas are what READ activations are tagged against.
	gac *gaClient
	// shipped is, per destination rank, which input blocks this rank has
	// sent there in full (sendActivate).
	shipped []shipBook

	stopOnce sync.Once
	stopCh   chan struct{}
	failOnce sync.Once
	wg       sync.WaitGroup
	// marks is one word per instance, indexed by Seq, set and cleared
	// with compare-and-swap so that neither a push nor a completion takes
	// mu. Bit queuedBit marks an instance ever pushed here: an instance
	// becomes ready exactly once, so a second push is always a
	// duplicate-source race (an heir's takeover scan against a concurrent
	// replayed activation, say) and is dropped. Bit f below it marks
	// input flow f as wire-delivered: its payload is a pooled tile
	// decoded from an activation, which this rank returns to the pool
	// when the instance completes (returnWired).
	marks []atomic.Uint32
	// owned is the snapshot of which ranks' instances this engine
	// schedules — its own, plus any dead rank it inherited — indexed by
	// rank. It is replaced, never written, and only by handleTakeover.
	owned atomic.Pointer[[]bool]
	// mu guards the rank bookkeeping below; no scheduling happens under
	// it.
	mu        sync.Mutex
	takenOver map[int]bool
	// doneSeqs are completed instances not yet reported to the
	// coordinator: they leave as one msgDone when doneBatch have
	// gathered, when a worker runs dry, or on the heartbeat.
	doneSeqs []int
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

func newEngine(cfg Config, rank int, tp *transport, tr *ptg.Tracker) *engine {
	e := &engine{
		cfg:       cfg,
		rank:      rank,
		tp:        tp,
		tr:        tr,
		stopCh:    make(chan struct{}),
		marks:     make([]atomic.Uint32, tr.NumInstances()),
		shipped:   make([]shipBook, cfg.Ranks),
		takenOver: make(map[int]bool),
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
	// Claims go through the tracker's lock: message handlers (deliveries,
	// takeover scans) read instance state concurrently with the workers.
	e.ex = runtime.NewExecutor(xcfg, runtime.Hooks{Start: tr.ClaimStart, Complete: e.complete, Dry: e.dry})
	// Every rank records: its spans are the binary section of its final
	// report. A rank expects its share of the graph, and a quarter more:
	// affinity does not split a graph exactly evenly.
	share := tr.NumInstances() / cfg.Ranks
	e.ex.Record(share + share/4)
	return e
}

// run hands the executor this rank's initially ready instances — its
// share of the run the plan's skeleton already sorted, so the queues
// adopt it as runtime.Run's do — and starts the executor and the
// heartbeat.
func (e *engine) run() {
	initial := e.tr.AppendInitialReady(nil)
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
// not pass on, hands the executor the local successors that became
// ready (s.Ready), and adds the instance's sequence number to the
// batch bound for the coordinator's termination bitset (see doneSeqs).
// The sequence number joins its batch only after the payload sends, so
// the Done that carries it is ordered after them on purpose — the
// coordinator's flush barrier then guarantees every accumulation is
// server-side before the energy is read. The deliveries go into the
// worker's own buffer (s.Dels): every worker runs this hook at once, and
// nothing keeps a Delivery past the call.
func (e *engine) complete(in *ptg.Instance, out []any, s *runtime.Scratch) error {
	dels, err := e.tr.Complete(in, s.Dels[:0])
	s.Dels = dels
	if err != nil {
		return err
	}
	for _, d := range dels {
		payload := out[d.FromFlow]
		if !e.owns(d.To.Node) {
			if err := e.sendActivate(in, d.To, d.ToFlow, payload, soleDelivery(dels, out, d)); err != nil {
				return err
			}
			continue
		}
		_, became, err := e.deliver(d.To, d.ToFlow, payload)
		if err != nil {
			return err
		}
		if became && e.mark(d.To, queuedBit) {
			s.Ready = append(s.Ready, d.To)
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
	return nil
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
// completions.
func (e *engine) dry() {
	e.mu.Lock()
	done := e.takeDoneLocked()
	e.mu.Unlock()
	if done != nil {
		e.tp.sendTo(coordRank, done)
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

// shipBook is one destination rank's record of the input blocks sent
// there in full, by tensor and block number. Its lock is held from the
// test-and-set of a block's entry through the enqueue of the frame it
// decided, so the full frame of a block is on the link before any
// tag-only frame of it.
type shipBook struct {
	mu   sync.Mutex
	sent map[string][]bool
}

// firstLocked marks block i of the named tensor, which has n blocks, as
// sent and reports whether it was not already. The caller holds mu.
func (b *shipBook) firstLocked(name string, i, n int) bool {
	if b.sent == nil {
		b.sent = make(map[string][]bool, 2)
	}
	sent := b.sent[name]
	if sent == nil {
		sent = make([]bool, n)
		b.sent[name] = sent
	}
	first := !sent[i]
	sent[i] = true
	return first
}

// readBlock names the input block a finished READ hands on as payload;
// ok is false for any other task or payload, and on a generic graph.
func (e *engine) readBlock(src *ptg.Instance, payload any) (name string, block int, ok bool) {
	if _, isTile := payload.(*tensor.Tile4); !isTile || e.gac == nil || e.gac.readBlock == nil {
		return "", 0, false
	}
	return e.gac.readBlock(src.Ref)
}

// sendActivate ships one dataflow payload from the finished instance src
// to the rank owning the consumer (through the takeover routing table).
// With borrow set — the caller knows nothing here will touch the payload
// again — a tile goes by reference: only the frame head is built, and
// the channel writes the floats from the tile itself. A READ's tile is
// an input block, and goes to each rank once: the first activation of
// the block to that rank carries it and its replica tag, later ones the
// tag alone (activateMsg).
func (e *engine) sendActivate(src, to *ptg.Instance, flow int, payload any, borrow bool) error {
	m := activateMsg{Class: to.Ref.Class, Args: to.Ref.Args, Flow: flow, Payload: payload}
	if name, i, ok := e.readBlock(src, payload); ok {
		b := &e.shipped[to.Node]
		b.mu.Lock()
		defer b.mu.Unlock()
		m.Replica, m.Block = name, i
		if !b.firstLocked(name, i, e.gac.Lazy(name).Source().NumBlocks()) {
			m.Payload = nil
		}
	}
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

// heartbeat tells the coordinator the rank is alive — a bodiless
// msgStatus — on every interval, after giving a dry rank the chance to
// flush completions. It also keeps the link to the coordinator busy, so
// a rank notices a coordinator that has gone.
func (e *engine) heartbeat() {
	defer e.wg.Done()
	t := time.NewTicker(heartbeat)
	defer t.Stop()
	for {
		select {
		case <-e.stopCh:
			return
		case <-t.C:
			e.dry()
			e.tp.sendTo(coordRank, newFrame(msgStatus, 0))
		}
	}
}

// handleActivate applies one inbound activation. An untagged tile
// payload is a pooled tile (decodeActivate) this rank now owes the pool:
// if the instance takes it, the flow is marked wire-delivered and the
// tile goes back when the instance completes; a duplicate goes back at
// once. A tagged activation's payload is a block of the input replica
// (replicaBlock), which no completion returns.
func (e *engine) handleActivate(m activateMsg) {
	in := e.tr.Instance(ptg.TaskRef{Class: m.Class, Args: m.Args})
	if in == nil {
		if t, ok := m.Payload.(*tensor.Tile4); ok {
			tensor.PutTile4(t)
		}
		e.fail(fmt.Errorf("netrun: activation for unknown task %s%v", m.Class, m.Args))
		return
	}
	if m.Replica != "" {
		t, err := e.replicaBlock(m)
		if err != nil {
			e.fail(err)
			return
		}
		m.Payload = t
	}
	took, ready, err := e.deliver(in, m.Flow, m.Payload)
	if t, ok := m.Payload.(*tensor.Tile4); ok && m.Replica == "" {
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

// replicaBlock resolves a tagged activation to the block of this rank's
// input replica it names. A tile that came with the tag is adopted as
// the block if the block is not resident, and goes back to the pool at
// once if it is; a tag alone finds the block resident on a healthy link
// — the sender queued the full frame first — and otherwise fills it
// from the deterministic input, so a tag is only ever a hint. A tag
// naming no input tensor of this rank, a block outside the tensor's
// table, or a tile of another shape than the block's fails the rank, and
// nothing is adopted.
func (e *engine) replicaBlock(m activateMsg) (*tensor.Tile4, error) {
	t, _ := m.Payload.(*tensor.Tile4)
	var l *ga.Lazy
	if e.gac != nil {
		l = e.gac.Lazy(m.Replica)
	}
	var err error
	switch {
	case l == nil:
		err = fmt.Errorf("netrun: activation tagged with %q, not an input tensor of this rank", m.Replica)
	case m.Block < 0 || m.Block >= l.Source().NumBlocks():
		err = fmt.Errorf("netrun: activation tagged with block %d of %q, which has %d", m.Block, m.Replica, l.Source().NumBlocks())
	case t != nil && (t.Dim != l.Source().Dims(m.Block) || t.Layout != l.Source().Layout(m.Block)):
		err = fmt.Errorf("netrun: activation carries a %v %v tile as block %d of %q, which is %v %v",
			t.Dim, t.Layout, m.Block, m.Replica, l.Source().Dims(m.Block), l.Source().Layout(m.Block))
	}
	if err != nil {
		tensor.PutTile4(t)
		return nil, err
	}
	c := e.tp.counters
	got, resident := l.Adopt(m.Block, t)
	switch {
	case t == nil:
		if !resident {
			c.replicaRefills.Add(1)
		}
	case resident:
		c.tilesReceived.Add(1)
		tensor.PutTile4(t)
		c.tilesReturned.Add(1)
	default:
		c.tilesReceived.Add(1)
		c.tilesAdopted.Add(1)
		e.gac.adopted(t)
	}
	return got, nil
}

// handleTakeover reacts to a rank death on every surviving rank:
// re-route the dead rank's traffic to the heir and replay the retained
// activation log there; and, on the heir itself, inherit the dead
// rank's slice of the graph and queue everything in it that is (or
// later becomes) ready. The heir re-executes the dead rank's entire
// subgraph from its roots — completions the dead rank already reported
// stay deduplicated downstream by the tracker flows and the GA server
// tags. Both rank ids come off the wire and index the routing tables,
// so a takeover naming a rank outside the run, or a rank as its own
// heir, fails this rank instead.
func (e *engine) handleTakeover(m takeoverMsg) {
	if m.Dead < 0 || m.Dead >= e.cfg.Ranks || m.Heir < 0 || m.Heir >= e.cfg.Ranks || m.Dead == m.Heir {
		e.fail(fmt.Errorf("netrun: rank %d: takeover of rank %d by rank %d in a %d-rank run", e.rank, m.Dead, m.Heir, e.cfg.Ranks))
		return
	}
	e.mu.Lock()
	if e.takenOver[m.Dead] {
		e.mu.Unlock()
		return
	}
	e.takenOver[m.Dead] = true
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

	if e.rank != m.Heir {
		return
	}
	owned := append([]bool(nil), *e.owned.Load()...)
	owned[m.Dead] = true
	e.owned.Store(&owned)
	for _, in := range e.tr.Instances() {
		if in.Node == m.Dead && e.tr.StateOf(in) == ptg.StateReady {
			e.push(in)
		}
	}
}

// report assembles the rank's final self-report; the executor must
// have been joined (wait).
func (e *engine) report() RankReport {
	x := e.ex.Report()
	return RankReport{
		Rank:    e.rank,
		Tasks:   x.Tasks,
		ByClass: x.ByClass,
		Comm:    e.tp.counters.snapshot(),
		Spans:   x.Spans,
	}
}
