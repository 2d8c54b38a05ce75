package netrun

import (
	"errors"
	"fmt"
	"net"
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

// pendingMsg is one slot of a channel's send window.
type pendingMsg struct {
	// frame is the encoded frame, built once by the message's encode; a
	// redial resends these bytes, head and borrowed tail alike. An
	// acknowledged slot holds no frame, so it pins no tile.
	frame outFrame
	// queued is set from staging until the socket write returns. A queued
	// frame is never staged again, so the receiver sees it once: waiting
	// in the outbox is the sender's backlog, not loss.
	queued bool
	acked  bool
}

// relChan is one outbound reliable link to a single peer: it owns the
// dialed connection, the send window, and the retained activation log.
// Data frames flow out; only acks flow back. A live TCP connection
// neither drops, duplicates nor reorders a frame, so the window is
// written again only when its connection dies: the redial resends, in
// send order, every frame written but not acknowledged, and the
// receiver's dedup drops the copies it already had.
//
// The channel numbers its frames 1, 2, 3, ..., so the window is a slice
// of slots in id order: window[i] is frame base+i. An ack marks its
// slots and empties them; the acknowledged prefix is trimmed, and the
// slice keeps its storage, so a steady stream allocates nothing here.
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

	mu    sync.Mutex
	wcond *sync.Cond // outbox gained frames, conn changed, or stopped
	conn  net.Conn
	// outbox is the ids of the frames awaiting the writer goroutine, from
	// outHead on; 0 = sever here.
	outbox  []uint64
	outHead int
	window  []pendingMsg
	base    uint64 // id of window[0]
	unacked int    // slots of the window not yet acknowledged
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
	id := c.base + uint64(len(c.window))
	frame.seal(id)
	c.window = append(c.window, pendingMsg{frame: frame})
	c.unacked++
	if c.retains(frame) {
		c.retained = append(c.retained, frame)
	}
	c.stageLocked(id)
	c.mu.Unlock()

	c.tp.counters.msgsSent.Add(1)
	c.tp.counters.bytesSent.Add(int64(frame.size()))
}

// pendingLocked returns the window slot of frame id, or nil once the
// frame is acknowledged. Callers hold c.mu, and the slot is valid only
// until they release it: a send or a trim may move the window.
func (c *relChan) pendingLocked(id uint64) *pendingMsg {
	if id < c.base || id-c.base >= uint64(len(c.window)) {
		return nil
	}
	if p := &c.window[id-c.base]; !p.acked {
		return p
	}
	return nil
}

// ackLocked settles the frames an ack lists that are still owed: each
// slot gives up its frame, and then the acknowledged prefix of the
// window is trimmed. Callers hold c.mu.
func (c *relChan) ackLocked(ids []uint64) {
	for _, id := range ids {
		if p := c.pendingLocked(id); p != nil {
			if !p.queued {
				c.recycleLocked(p.frame)
			}
			*p = pendingMsg{acked: true}
			c.unacked--
			c.tp.counters.acksReceived.Add(1)
		}
	}
	k := 0
	for k < len(c.window) && c.window[k].acked {
		k++
	}
	if k > 0 {
		n := copy(c.window, c.window[k:])
		clear(c.window[n:]) // the moved slots' old places must not pin a frame
		c.window = c.window[:n]
		c.base += uint64(k)
	}
}

// recycleLocked returns the head of an acknowledged frame to the free
// list (putHead), unless the channel retains the frame for a takeover.
// Exactly one party does it, the last to let go, under c.mu: ackLocked
// for a frame that is not queued, and writeLoop for one acknowledged
// while its write was in flight, once the write has returned. A frame
// acknowledged while it waited in the outbox is never written again,
// and its head is left to the collector. Callers hold c.mu.
func (c *relChan) recycleLocked(f outFrame) {
	if !c.retains(f) {
		putHead(f.head)
	}
}

// retains reports whether send keeps the frame in the retained
// activation log.
func (c *relChan) retains(f outFrame) bool {
	return c.tp.recoverDeadPeers && f.typ() == msgActivate
}

// stageLocked queues one transmission of owed frame id, which is not
// already queued. A SeverSpec due at this frame count queues the sever
// marker instead, which the writer turns into a connection close; the
// frame itself then goes out after the redial. Callers hold c.mu.
func (c *relChan) stageLocked(id uint64) {
	if sv := c.tp.sever; sv != nil && sv.From == c.tp.local && sv.To == c.dst {
		c.frames++
		if !c.severed && c.frames > sv.AfterFrames {
			c.severed = true
			c.tp.counters.severs.Add(1)
			c.outbox = append(c.outbox, 0) // sever marker: writer cuts the link here
			c.wcond.Broadcast()
			return
		}
	}
	c.pendingLocked(id).queued = true
	c.outbox = append(c.outbox, id)
	c.wcond.Broadcast()
	if c.conn == nil {
		c.ensureDialLocked()
	}
}

// resendLocked stages again owed frame id, written to a connection that
// has since died, charging it as a retry. Callers hold c.mu.
func (c *relChan) resendLocked(id uint64) {
	c.tp.counters.retries.Add(1)
	c.tp.counters.retransmitBytes.Add(int64(c.pendingLocked(id).frame.size()))
	c.stageLocked(id)
}

// writeLoop is the channel's writer goroutine: it drains the outbox
// onto whatever connection is current, blocking on the kernel with no
// locks held. A failed or severed write loses the bytes — the frame
// stays in the window, and the redial resends it. A frame acknowledged
// while it waited in the outbox (a dead connection's late ack) is not
// written. A frame with a borrowed tail goes out as one vectored write,
// head then tile, through a net.Buffers this goroutine reuses.
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
		id := c.outbox[c.outHead]
		if c.outHead++; c.outHead == len(c.outbox) {
			c.outbox, c.outHead = c.outbox[:0], 0
		}
		conn := c.conn
		if id == 0 { // sever marker
			c.mu.Unlock()
			c.dropConn(conn, true)
			continue
		}
		p := c.pendingLocked(id)
		if p == nil {
			c.mu.Unlock()
			continue
		}
		frame := p.frame
		c.mu.Unlock()

		var err error
		if frame.tail == nil {
			_, err = conn.Write(frame.head)
		} else {
			pair[0], pair[1] = frame.head, frame.tail
			vec = pair[:] // WriteTo consumes vec, not pair
			_, err = vec.WriteTo(conn)
			pair[0], pair[1] = nil, nil // do not pin an acked tile
		}
		c.mu.Lock()
		if p := c.pendingLocked(id); p == nil {
			c.recycleLocked(frame) // acknowledged while this write was in flight
		} else {
			p.queued = false
			if c.conn != nil && c.conn != conn {
				// The connection died under this write and the redial has
				// already resent the window, skipping this frame as queued.
				c.resendLocked(id)
			}
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
		if redial || c.unacked > 0 {
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
				c.stop()
				if c.tp.gone != nil {
					c.tp.gone(c.dst)
				}
				c.tp.fail(fmt.Errorf("netrun: %s: %s %s is gone: %w", rankName(c.tp.local), rankName(c.dst), c.addr, err))
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
		// again, in the order they were sent: the window's. Frames still
		// queued were never written: they go out on this connection as
		// they are.
		for i := range c.window {
			if p := &c.window[i]; !p.acked && !p.queued {
				c.resendLocked(c.base + uint64(i))
			}
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
// the channel back to the dialer. Every ack decodes into the same id
// slice.
func (c *relChan) readAcks(conn net.Conn) {
	defer c.tp.wg.Done()
	fr := newFrameReader(conn)
	var m ackMsg
	for {
		f, err := fr.read()
		if err == nil && f.typ != msgAck {
			err = errBadType
		}
		var aerr error
		m, aerr = decodeAck(f.body, m.IDs)
		if err != nil || aerr != nil {
			c.mu.Lock()
			if c.conn == conn {
				c.conn.Close()
				c.conn = nil
				// A rank redials its coordinator even with nothing owed: a
				// refused dial is how it learns the coordinator is gone.
				if c.unacked > 0 || c.dst == coordRank {
					c.ensureDialLocked()
				}
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		c.ackLocked(m.IDs)
		if c.unacked == 0 {
			c.tp.drainWake.post()
		}
		c.mu.Unlock()
	}
}

// drained reports whether every sent frame has been acknowledged. A
// stopped channel counts as drained: its peer is gone and its window
// can never be acked, so a rank's exit wait on it would only run out.
func (c *relChan) drained() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopped || c.unacked == 0
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
	// gone, if set, learns that peer is gone just before fail does. Set
	// it with fail.
	gone func(peer int)
	// onClose, if set, learns that the inbound connection from a peer
	// has closed while this endpoint is still open: the coordinator's cue
	// to probe the rank (coordinator.probe). It runs on the connection's
	// goroutine. Set it before serve.
	onClose func(from int)

	// drainWake is posted whenever some channel's window may have just
	// been settled; waitDrained parks on it.
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
// the ids, encoded into one buffer per connection.
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

	var (
		acks []uint64
		ack  []byte // every burst's ack frame is encoded here
	)
	for {
		if len(acks) > 0 && (fr.wouldBlock() || len(acks) >= ackBatch) {
			// A failed write means the connection is dying; the read
			// below reports it.
			ack = ackMsg{IDs: acks}.appendFrame(ack[:0])
			conn.Write(sealFrame(ack, 0))
			acks = acks[:0]
		}
		f, err := fr.read()
		if err != nil {
			tp.mu.Lock()
			if tp.sessions[from] == conn {
				delete(tp.sessions, from)
			}
			open := !tp.closed
			tp.mu.Unlock()
			if open && tp.onClose != nil {
				tp.onClose(from)
			}
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
		c := &relChan{tp: tp, dst: rank, addr: addr, base: 1}
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

// wakeup is a one-token signal (capacity 1): post never blocks, and a
// waiter that takes the token re-checks the condition it waits on.
type wakeup chan struct{}

func (w wakeup) post() {
	select {
	case w <- struct{}{}:
	default:
	}
}

// waitDrained blocks until the channel is drained, reporting false if
// limit passes first.
func (c *relChan) waitDrained(limit time.Duration) bool {
	t := time.NewTimer(limit)
	defer t.Stop()
	for !c.drained() {
		select {
		case <-c.tp.drainWake:
		case <-t.C:
			return false
		}
	}
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
