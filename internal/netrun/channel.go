package netrun

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// SeverSpec closes one direction of one link after a number of frames:
// the scripted "sever a connection" of the chaos suite. The sender's
// redial-and-resend path must absorb it without losing a message.
type SeverSpec struct {
	From, To    int
	AfterFrames int
}

// commCounters aggregates one process's wire activity; all fields are
// atomics because senders, receivers, writers and dialers race. retries
// and retransmitBytes count the frames a redial writes again.
type commCounters struct {
	msgsSent        atomic.Int64
	bytesSent       atomic.Int64
	acksReceived    atomic.Int64
	retries         atomic.Int64
	retransmitBytes atomic.Int64
	dupSuppressed   atomic.Int64
	reconnects      atomic.Int64
	severs          atomic.Int64

	transferOps   atomic.Int64 // activations (tile movement)
	transferBytes atomic.Int64
	accOps        atomic.Int64
	accBytes      atomic.Int64

	// Tile ownership on the wire (engine.go): activations sent by
	// reference; pooled tiles decoded from activations, and where each
	// went — back to the pool at its consumer's completion or at once
	// (a duplicate, or an input block already resident), onward
	// (forwarded by the consumer, or released by its body), or into the
	// input replica. Replica refills are tag-only activations whose
	// block was not resident and was filled locally.
	tilesBorrowed  atomic.Int64
	tilesReceived  atomic.Int64
	tilesReturned  atomic.Int64
	tilesDuplicate atomic.Int64
	tilesPassedOn  atomic.Int64
	tilesAdopted   atomic.Int64
	replicaRefills atomic.Int64
}

// pendingMsg is one unacknowledged frame.
type pendingMsg struct {
	id uint64
	// frame is the encoded frame, built once by the message's encode; a
	// redial resends these bytes, head and borrowed tail alike.
	frame outFrame
	// queued is set from staging until the socket write returns. A queued
	// frame is never staged again, so the receiver sees it once: waiting
	// in the outbox is the sender's backlog, not loss.
	queued bool
}

// relChan is one outbound reliable link to a single peer: it owns the
// dialed connection, the unacked window, and the retained activation
// log. Data frames flow out; only acks flow back. A live TCP connection
// neither drops, duplicates nor reorders a frame, so the window is
// written again only when its connection dies: the redial resends, in
// send order, every frame written but not acknowledged, and the
// receiver's dedup drops the copies it already had.
//
// All socket writes happen on the channel's writer goroutine, never
// under c.mu: a blocking write while holding the mutex deadlocks once
// the kernel buffers fill (sender holds mu blocked on write, the peer's
// receive loop blocks writing an ack back, and the ack reader that
// would drain it waits on mu).
type relChan struct {
	tp   *transport
	dst  int
	addr string

	mu      sync.Mutex
	wcond   *sync.Cond // outbox gained frames, conn changed, or stopped
	conn    net.Conn
	outbox  []*pendingMsg // frames awaiting the writer goroutine; nil = sever here
	nextID  uint64
	unacked map[uint64]*pendingMsg
	// retained is the activation log owed to an heir should the peer die:
	// kept only when recovery can use it (recoverDeadPeers), and sharing
	// the pending frames' bytes, borrowed tiles included.
	retained []outFrame
	frames   int // frames written, for SeverSpec
	severed  bool
	stopped  bool
	dialing  bool
}

func (c *relChan) stop() {
	c.mu.Lock()
	c.stopped = true
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.wcond.Broadcast()
	c.mu.Unlock()
	c.tp.drainWake.post()
}

// send takes ownership of an encoded frame's head and, when the frame
// has a tail, a borrow of the tile behind it until the frame is
// acknowledged (for the whole run when the activation is retained): it
// assigns the reliability id, retains activations for takeover replay,
// and stages the first transmission. The call never touches the network.
func (c *relChan) send(frame outFrame) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.nextID++
	frame.seal(c.nextID)
	p := &pendingMsg{id: c.nextID, frame: frame}
	c.unacked[p.id] = p
	if c.tp.recoverDeadPeers && frame.typ() == msgActivate {
		c.retained = append(c.retained, frame)
	}
	c.stageLocked(p)
	c.mu.Unlock()

	c.tp.counters.msgsSent.Add(1)
	c.tp.counters.bytesSent.Add(int64(frame.size()))
}

// stageLocked queues one transmission of a pending frame that is not
// already queued. A SeverSpec due at this frame count queues a nil
// entry instead, which the writer turns into a connection close; the
// frame itself then goes out after the redial. Callers hold c.mu.
func (c *relChan) stageLocked(p *pendingMsg) {
	if sv := c.tp.sever; sv != nil && sv.From == c.tp.local && sv.To == c.dst {
		c.frames++
		if !c.severed && c.frames > sv.AfterFrames {
			c.severed = true
			c.tp.counters.severs.Add(1)
			c.outbox = append(c.outbox, nil) // sever marker: writer cuts the link here
			c.wcond.Broadcast()
			return
		}
	}
	p.queued = true
	c.outbox = append(c.outbox, p)
	c.wcond.Broadcast()
	if c.conn == nil {
		c.ensureDialLocked()
	}
}

// resendLocked stages again a frame that a dead connection still owed,
// charging it as a retry. Callers hold c.mu.
func (c *relChan) resendLocked(p *pendingMsg) {
	c.tp.counters.retries.Add(1)
	c.tp.counters.retransmitBytes.Add(int64(p.frame.size()))
	c.stageLocked(p)
}

// writeLoop is the channel's writer goroutine: it drains the outbox
// onto whatever connection is current, blocking on the kernel with no
// locks held. A failed or severed write loses the bytes — the frame
// stays in the unacked window, and the redial resends it. A frame with a
// borrowed tail goes out as one vectored write, head then tile, through
// a net.Buffers this goroutine reuses.
func (c *relChan) writeLoop() {
	defer c.tp.wg.Done()
	var (
		pair [2][]byte
		vec  net.Buffers
	)
	for {
		c.mu.Lock()
		for !c.stopped && (len(c.outbox) == 0 || c.conn == nil) {
			if len(c.outbox) > 0 {
				c.ensureDialLocked()
			}
			c.wcond.Wait()
		}
		if c.stopped {
			c.mu.Unlock()
			return
		}
		p := c.outbox[0]
		c.outbox[0] = nil // the backing array must not pin an acked frame
		c.outbox = c.outbox[1:]
		conn := c.conn
		c.mu.Unlock()

		if p == nil { // sever marker
			c.dropConn(conn, true)
			continue
		}
		var err error
		if p.frame.tail == nil {
			_, err = conn.Write(p.frame.head)
		} else {
			pair[0], pair[1] = p.frame.head, p.frame.tail
			vec = pair[:] // WriteTo consumes vec, not pair
			_, err = vec.WriteTo(conn)
			pair[0], pair[1] = nil, nil // do not pin an acked tile
		}
		c.mu.Lock()
		p.queued = false
		if c.conn != nil && c.conn != conn && c.unacked[p.id] == p {
			// The connection died under this write and the redial has
			// already resent the window, skipping this frame as queued.
			c.resendLocked(p)
		}
		c.mu.Unlock()
		if err != nil {
			c.dropConn(conn, false)
		}
	}
}

// dropConn retires a connection after a write failure or a scripted
// sever and, if frames remain owed, starts a redial.
func (c *relChan) dropConn(conn net.Conn, redial bool) {
	conn.Close()
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
		if redial || len(c.unacked) > 0 {
			c.ensureDialLocked()
		}
	}
	c.mu.Unlock()
}

// ensureDialLocked starts a background dial if none is in flight.
func (c *relChan) ensureDialLocked() {
	if c.dialing || c.stopped {
		return
	}
	c.dialing = true
	c.tp.wg.Add(1)
	go c.dialLoop()
}

// dialLoop establishes (or re-establishes) the connection, sends the
// hello, resends the frames owed, and starts the ack reader. It retries
// with a short fixed pause until it succeeds or the channel stops. A
// refused dial means nothing listens at the peer's address any more:
// the peer is gone, and this endpoint fails — unless Recover is on and
// the peer is a worker rank, whose takeover will stop this channel and
// redirect its traffic. A severed link redials, because the listener is
// still there.
func (c *relChan) dialLoop() {
	defer c.tp.wg.Done()
	for {
		c.mu.Lock()
		if c.stopped || c.conn != nil {
			c.dialing = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()

		conn, err := net.DialTimeout("tcp", c.addr, time.Second)
		if err != nil {
			if errors.Is(err, syscall.ECONNREFUSED) && !(c.tp.recoverDeadPeers && c.dst != coordRank) {
				peer := fmt.Sprintf("rank %d", c.dst)
				if c.dst == coordRank {
					peer = "coordinator"
				}
				c.stop()
				c.tp.fail(fmt.Errorf("netrun: rank %d: %s %s is gone: %w", c.tp.local, peer, c.addr, err))
				return
			}
			select {
			case <-c.tp.stopCh:
				c.mu.Lock()
				c.dialing = false
				c.mu.Unlock()
				return
			case <-time.After(20 * time.Millisecond):
			}
			continue
		}
		if _, err := conn.Write(sealFrame(helloMsg{From: c.tp.local}.encode(), 0)); err != nil {
			conn.Close()
			continue
		}
		c.mu.Lock()
		if c.stopped {
			conn.Close()
			c.dialing = false
			c.mu.Unlock()
			return
		}
		c.conn = conn
		c.dialing = false
		// Frames written to a connection that has since died are owed
		// again, in the order they were sent. Frames still queued were
		// never written: they go out on this connection as they are.
		owed := make([]*pendingMsg, 0, len(c.unacked))
		for _, p := range c.unacked {
			if !p.queued {
				owed = append(owed, p)
			}
		}
		slices.SortFunc(owed, func(a, b *pendingMsg) int { return cmp.Compare(a.id, b.id) })
		for _, p := range owed {
			c.resendLocked(p)
		}
		c.wcond.Broadcast()
		c.mu.Unlock()
		c.tp.counters.reconnects.Add(1)
		c.tp.wg.Add(1)
		go c.readAcks(conn)
		return
	}
}

// readAcks drains acknowledgment frames from one connection until it
// dies (or sends anything that is not a well-formed ack), then hands
// the channel back to the dialer.
func (c *relChan) readAcks(conn net.Conn) {
	defer c.tp.wg.Done()
	fr := newFrameReader(conn)
	for {
		f, err := fr.read()
		if err == nil && f.typ != msgAck {
			err = errBadType
		}
		m, aerr := decodeAck(f.body)
		if err != nil || aerr != nil {
			c.mu.Lock()
			if c.conn == conn {
				c.conn.Close()
				c.conn = nil
				// A rank redials its coordinator even with nothing owed: a
				// refused dial is how it learns the coordinator is gone.
				if len(c.unacked) > 0 || c.dst == coordRank {
					c.ensureDialLocked()
				}
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		for _, id := range m.IDs {
			if _, ok := c.unacked[id]; ok {
				delete(c.unacked, id)
				c.tp.counters.acksReceived.Add(1)
			}
		}
		if len(c.unacked) == 0 {
			c.tp.drainWake.post()
		}
		c.mu.Unlock()
	}
}

// drained reports whether every sent frame has been acknowledged. A
// stopped channel counts as drained: its peer is dead, its window can
// never be acked, and takeover already surrendered its retained log —
// holding the flush barrier on it would hang every live rank.
func (c *relChan) drained() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopped || len(c.unacked) == 0
}

// takeRetained stops the channel and surrenders its retained activation
// log for replay to an heir.
func (c *relChan) takeRetained() []outFrame {
	c.mu.Lock()
	r := c.retained
	c.retained = nil
	c.mu.Unlock()
	c.stop()
	return r
}

// transport is one process's endpoint: a listener for inbound traffic,
// outbound reliable channels by destination, per-sender receive dedup,
// and the rank routing table that takeover rewrites.
type transport struct {
	local    int
	sever    *SeverSpec
	counters *commCounters
	// recoverDeadPeers (set when Config.Recover is on) keeps a channel to
	// a worker rank redialing a refused peer instead of failing the run:
	// a rank that is really dead gets the channel redirected by takeover,
	// while failing here would race the takeover broadcast. Channels to
	// the coordinator still fail at the first refused dial.
	recoverDeadPeers bool

	ln     net.Listener
	stopCh chan struct{}
	wg     sync.WaitGroup

	// handler receives every deduplicated inbound data frame. It runs on
	// the inbound connection's goroutine; slow work must be handed off.
	handler func(from int, f frame)
	// onSeen, if set, observes every inbound frame's sender before
	// dedup — the coordinator's liveness signal.
	onSeen func(from int)
	// fail receives the error that ends the run for this endpoint: a
	// refused dial to a peer that is gone (see dialLoop). Set it before
	// serve and the first send.
	fail func(error)

	// drainWake is posted whenever some channel's unacked window may
	// have just emptied; waitDrained parks on it.
	drainWake wakeup

	mu       sync.Mutex
	chans    map[int]*relChan
	routes   map[int]int // rank -> rank actually serving it (takeover)
	seen     map[int]*dedup
	sessions map[int]net.Conn // inbound connection by sender
	closed   bool
}

// dedup is one sender's receive-side duplicate filter. A channel numbers
// its frames 1, 2, 3, ... and a connection delivers them in order, so the
// ids seen are a contiguous prefix plus, after a redial, a few above it:
// frames still queued when the old connection died go out ahead of the
// resent ones. The copies of frames that arrived before it died fall
// below the watermark. The state is the watermark and that sparse set,
// O(frames in flight) however long the run.
type dedup struct {
	low   uint64          // every id <= low has been seen
	above map[uint64]bool // ids seen beyond low
}

// observe records an id and reports whether it had been seen before.
func (d *dedup) observe(id uint64) (dup bool) {
	if id <= d.low || d.above[id] {
		return true
	}
	d.above[id] = true
	for d.above[d.low+1] {
		d.low++
		delete(d.above, d.low)
	}
	return false
}

// ackBatch bounds how many ids one msgAck carries, so a stream that
// never lets the read buffer run dry still acknowledges steadily.
const ackBatch = 64

// newTransport opens a listener on a free TCP loopback port; serve
// starts accepting on it.
func newTransport(local int, sever *SeverSpec) (*transport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netrun: listen: %w", err)
	}
	tp := &transport{
		local:    local,
		sever:    sever,
		counters: &commCounters{},
		ln:       ln,
		stopCh:   make(chan struct{}),
		chans:    make(map[int]*relChan),
		routes:   make(map[int]int),
		seen:     make(map[int]*dedup),
		sessions: make(map[int]net.Conn),

		drainWake: make(wakeup, 1),
	}
	return tp, nil
}

// serve installs the inbound handlers and starts accepting. Until then
// peers' connections wait in the listen backlog, so no frame can reach
// an endpoint whose owner is still being built.
func (tp *transport) serve(handler func(from int, f frame), onSeen func(from int)) {
	tp.handler, tp.onSeen = handler, onSeen
	tp.wg.Add(1)
	go tp.acceptLoop()
}

// addr returns the listener's address string.
func (tp *transport) addr() string { return tp.ln.Addr().String() }

func (tp *transport) acceptLoop() {
	defer tp.wg.Done()
	for {
		conn, err := tp.ln.Accept()
		if err != nil {
			return // listener closed
		}
		tp.wg.Add(1)
		go tp.serveConn(conn)
	}
}

// serveConn handles one inbound connection: hello, then data frames,
// deduplicated per sender and handed to the handler, which must be done
// with a frame's body when it returns (the next read reuses the buffer).
// Acknowledgments go out once per read burst — when the next frame has
// to be waited for, or ackBatch ids are owed — as one msgAck listing
// the ids.
func (tp *transport) serveConn(conn net.Conn) {
	defer tp.wg.Done()
	defer conn.Close()
	fr := newFrameReader(conn)
	hello, err := fr.read()
	if err != nil || hello.typ != msgHello {
		return
	}
	hm, err := decodeHello(hello.body)
	if err != nil {
		return
	}
	from := hm.From
	tp.mu.Lock()
	if tp.closed {
		tp.mu.Unlock()
		return
	}
	tp.sessions[from] = conn
	seen := tp.seen[from]
	if seen == nil {
		seen = &dedup{above: make(map[uint64]bool)}
		tp.seen[from] = seen
	}
	tp.mu.Unlock()
	if tp.onSeen != nil {
		tp.onSeen(from)
	}

	var acks []uint64
	for {
		if len(acks) > 0 && (fr.wouldBlock() || len(acks) >= ackBatch) {
			// A failed write means the connection is dying; the read
			// below reports it.
			conn.Write(sealFrame(ackMsg{IDs: acks}.encode(), 0))
			acks = acks[:0]
		}
		f, err := fr.read()
		if err != nil {
			tp.mu.Lock()
			if tp.sessions[from] == conn {
				delete(tp.sessions, from)
			}
			tp.mu.Unlock()
			return
		}
		if tp.onSeen != nil {
			tp.onSeen(from)
		}
		acks = append(acks, f.id)
		tp.mu.Lock()
		dup := seen.observe(f.id)
		tp.mu.Unlock()
		if dup {
			tp.counters.dupSuppressed.Add(1)
			continue
		}
		tp.handler(from, f)
	}
}

// chanTo returns (creating if needed) the outbound channel to a rank,
// following the takeover routing table.
func (tp *transport) chanTo(rank int) *relChan {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if r, ok := tp.routes[rank]; ok {
		rank = r
	}
	c := tp.chans[rank]
	if c == nil {
		panic(fmt.Sprintf("netrun: rank %d has no channel to %d", tp.local, rank))
	}
	return c
}

// connect registers the outbound channel to a peer's address. The
// actual dial happens lazily on first send.
func (tp *transport) connect(rank int, addr string) {
	tp.mu.Lock()
	if tp.chans[rank] == nil {
		c := &relChan{tp: tp, dst: rank, addr: addr, unacked: make(map[uint64]*pendingMsg)}
		c.wcond = sync.NewCond(&c.mu)
		tp.chans[rank] = c
		tp.wg.Add(1)
		go c.writeLoop()
	}
	tp.mu.Unlock()
}

// sendTo delivers one encoded single-buffer frame reliably to a rank
// (through the routing table). The transport owns the frame from here
// on.
func (tp *transport) sendTo(rank int, frame []byte) {
	tp.sendFrame(rank, outFrame{head: frame})
}

// sendFrame is sendTo for any frame: the transport owns the head, and
// borrows the tile behind a tail for as long as relChan.send says.
func (tp *transport) sendFrame(rank int, frame outFrame) {
	tp.chanTo(rank).send(frame)
}

// redirect re-routes a dead rank to its heir and returns the retained
// activation log owed to the heir. Idempotent per dead rank.
func (tp *transport) redirect(dead, heir int) []outFrame {
	tp.mu.Lock()
	if r, ok := tp.routes[dead]; ok && r == heir {
		tp.mu.Unlock()
		return nil
	}
	tp.routes[dead] = heir
	c := tp.chans[dead]
	tp.mu.Unlock()
	if c == nil || dead == tp.local {
		return nil
	}
	return c.takeRetained()
}

// channels returns a snapshot of the outbound channels.
func (tp *transport) channels() []*relChan {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	chans := make([]*relChan, 0, len(tp.chans))
	for _, c := range tp.chans {
		chans = append(chans, c)
	}
	return chans
}

// drained reports whether every outbound channel has an empty unacked
// window.
func (tp *transport) drained() bool {
	for _, c := range tp.channels() {
		if !c.drained() {
			return false
		}
	}
	return true
}

// wakeup is a one-token signal (capacity 1): post never blocks, and a
// waiter that takes the token re-checks the condition it waits on.
type wakeup chan struct{}

func (w wakeup) post() {
	select {
	case w <- struct{}{}:
	default:
	}
}

// waitDrained blocks until the one outbound channel given — or, given
// nil, every outbound channel — is drained, reporting false if stop
// fires or limit passes first.
func (tp *transport) waitDrained(only *relChan, stop <-chan struct{}, limit time.Duration) bool {
	t := time.NewTimer(limit)
	defer t.Stop()
	drained := tp.drained
	if only != nil {
		drained = only.drained
	}
	for !drained() {
		select {
		case <-tp.drainWake:
		case <-stop:
			return false
		case <-t.C:
			return false
		}
	}
	tp.drainWake.post() // pass the token on: another waiter may be parked on it
	return true
}

// close tears the endpoint down: listener, inbound sessions, outbound
// channels.
func (tp *transport) close() {
	tp.mu.Lock()
	if tp.closed {
		tp.mu.Unlock()
		return
	}
	tp.closed = true
	sessions := make([]net.Conn, 0, len(tp.sessions))
	for _, s := range tp.sessions {
		sessions = append(sessions, s)
	}
	tp.mu.Unlock()

	close(tp.stopCh)
	tp.ln.Close()
	for _, s := range sessions {
		s.Close()
	}
	for _, c := range tp.channels() {
		c.stop()
	}
	tp.wg.Wait()
}
