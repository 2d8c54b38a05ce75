package netrun

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"parsec/internal/fault"
)

// RetryPolicy is the real-time analogue of simexec's virtual-comm-thread
// recovery machine (PR 4): a sender considers a frame lost Timeout after
// its last transmission, waits a capped exponential backoff (Backoff,
// 2*Backoff, ... up to BackoffCap), and retransmits; after MaxRetries
// retransmissions the link — and the run — fails. The receiver's
// per-sender dedup makes the resulting at-least-once delivery safe.
type RetryPolicy struct {
	Timeout    time.Duration
	Backoff    time.Duration
	BackoffCap time.Duration
	MaxRetries int
}

// DefaultRetryPolicy returns the production defaults. The retry horizon
// (Timeout plus the backoff series) deliberately exceeds the
// coordinator's death-detection window (deathTimeout), so a sender
// blocked on a dead peer survives long enough for the takeover
// broadcast to re-route its retained traffic instead of failing the
// run.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Timeout:    100 * time.Millisecond,
		Backoff:    50 * time.Millisecond,
		BackoffCap: 400 * time.Millisecond,
		MaxRetries: 15,
	}
}

// backoffFor returns the wait before retransmission n (0-based).
func (p RetryPolicy) backoffFor(n int) time.Duration {
	b := p.Backoff
	for i := 0; i < n; i++ {
		b *= 2
		if b >= p.BackoffCap {
			return p.BackoffCap
		}
	}
	if b > p.BackoffCap {
		b = p.BackoffCap
	}
	return b
}

// SeverSpec closes one direction of one link after a number of frames:
// the scripted "sever a connection" of the chaos suite. The sender's
// reconnect-and-retransmit path must absorb it without losing a message.
type SeverSpec struct {
	From, To    int
	AfterFrames int
}

// injector wraps the discrete-event fault injector for concurrent use:
// fault.Injector mutates seeded RNG streams and was written for the
// single-threaded simulation engine, so every draw serializes here.
type injector struct {
	mu  sync.Mutex
	inj *fault.Injector
}

func newInjector(cfg *fault.Config) *injector {
	if cfg == nil {
		return nil
	}
	return &injector{inj: fault.New(*cfg)}
}

// transfer returns the seeded verdict for one send attempt.
func (j *injector) transfer(from, to int) fault.XferOutcome {
	if j == nil {
		return fault.XferOutcome{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.inj.Transfer(from, to)
}

// commCounters aggregates one process's wire activity; all fields are
// atomics because senders, receivers, and retransmit timers race.
type commCounters struct {
	msgsSent        atomic.Int64
	bytesSent       atomic.Int64
	acksReceived    atomic.Int64
	retries         atomic.Int64
	retransmitBytes atomic.Int64
	backoffNs       atomic.Int64
	dropsInjected   atomic.Int64
	ackDropsInj     atomic.Int64
	dupSuppressed   atomic.Int64
	reconnects      atomic.Int64
	severs          atomic.Int64

	transferOps   atomic.Int64 // activations (tile movement)
	transferBytes atomic.Int64
	accOps        atomic.Int64
	accBytes      atomic.Int64
	getOps        atomic.Int64
	getBytes      atomic.Int64

	// Tile ownership on the wire (engine.go): activations sent by
	// reference; pooled tiles decoded from activations, and where each
	// went — back to the pool at its consumer's completion, back at once
	// as a duplicate, or onward (forwarded by the consumer, or released by
	// its body).
	tilesBorrowed  atomic.Int64
	tilesReceived  atomic.Int64
	tilesReturned  atomic.Int64
	tilesDuplicate atomic.Int64
	tilesPassedOn  atomic.Int64
}

// pendingMsg is one unacknowledged frame awaiting ack or retransmission.
type pendingMsg struct {
	id uint64
	// frame is the encoded frame, built once by the message's encode; a
	// retransmission resends these bytes — head and borrowed tail alike —
	// with only the ack-suppress bit rewritten.
	frame    outFrame
	attempts int       // retransmissions charged
	deadline time.Time // next loss-detection point
	// queued is set from staging until the socket write returns. A queued
	// frame is never staged again (so the receiver sees it once), and on
	// a live link it is not timed either: waiting in the outbox is the
	// sender's backlog, not loss.
	queued bool
}

// relChan is one outbound reliable link to a single peer: it owns the
// dialed connection, the unacked window, the retransmit timer, and the
// retained activation log. Data frames flow out; only acks flow back.
//
// All socket writes happen on the channel's writer goroutine, never
// under c.mu: a blocking write while holding the mutex deadlocks once
// the kernel buffers fill (sender holds mu blocked on write, the peer's
// receive loop blocks writing an ack back, and the ack reader that
// would drain it waits on mu). Unix sockets' small buffers hit this
// immediately; TCP merely hides it behind bigger buffers.
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
// and stages the first transmission. Loss is recovered by the retransmit
// timer; the call never touches the network.
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

// armLocked sets the frame's next loss-detection point: Timeout from
// now, plus the backoff its last retransmission earned.
func (c *relChan) armLocked(p *pendingMsg) {
	d := c.tp.retry.Timeout
	if p.attempts > 0 {
		d += c.tp.retry.backoffFor(p.attempts - 1)
	}
	p.deadline = time.Now().Add(d)
}

// stageLocked queues one transmission attempt of a pending frame that
// is not already queued, consulting the fault injector: a Drop verdict
// skips it entirely (the timer retransmits), an AckDrop verdict sets
// the ack-suppress bit so the receiver provokes the duplicate path, and
// a Sever verdict due at this frame count is a nil outbox entry the
// writer turns into a connection close. Callers hold c.mu; the socket
// write itself happens on the writer goroutine, which re-arms the loss
// timer when the write returns — the arming here only covers a frame
// that is dropped, or queued on a link that stays down.
func (c *relChan) stageLocked(p *pendingMsg) {
	c.armLocked(p)
	out := c.tp.inj.transfer(c.tp.local, c.dst)
	if out.Drop {
		c.tp.counters.dropsInjected.Add(1)
		return
	}
	if out.AckDrop {
		c.tp.counters.ackDropsInj.Add(1)
	}
	setAckSuppress(p.frame.head, out.AckDrop)
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

// writeLoop is the channel's writer goroutine: it drains the outbox
// onto whatever connection is current, blocking on the kernel with no
// locks held, and starts each frame's loss timer when its write
// returns. A failed or severed write loses the bytes — the frame stays
// in the unacked window, so the redial (or the timer) retransmits it. A
// frame with a borrowed tail goes out as one vectored write, head then
// tile, through a net.Buffers this goroutine reuses.
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
		c.armLocked(p)
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
// hello, and starts the ack reader. It retries with a short fixed pause
// until it succeeds or the channel stops.
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

		conn, err := net.DialTimeout(c.tp.network, c.addr, time.Second)
		if err != nil {
			if c.dst == coordRank && refused(err) {
				// Nothing listens at the coordinator's address: it has
				// exited, and a rank cannot finish without it. A severed
				// link redials, because the listener is still there. A
				// stopped channel never dials again.
				c.stop()
				c.tp.fail(fmt.Errorf("netrun: rank %d: coordinator %s is gone: %w", c.tp.local, c.addr, err))
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
		// Frames written to a connection that has since died are owed a
		// retransmission now rather than when the loss timer notices.
		// Frames still queued were never written: they go out on this
		// connection as they are, and restaging them would only send the
		// receiver duplicates.
		for _, p := range c.unacked {
			if !p.queued {
				c.stageLocked(p)
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

// tick is the loss-detection scan: every pending frame past its
// deadline is charged one retry, waits its capped backoff (folded into
// the next deadline rather than slept, so one timer serves all links),
// and is retransmitted. The deadline measures the link: it runs from
// the socket write, and a frame waiting its turn in the outbox of a
// live connection is not late. With the link down the clock does run
// for queued frames, so a peer that never comes back still exhausts the
// retries. Exhausted retries fail the whole process — the simexec
// contract — unless the peer is under takeover re-routing.
func (c *relChan) tick(now time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return nil
	}
	for _, p := range c.unacked {
		if (p.queued && c.conn != nil) || now.Before(p.deadline) {
			continue
		}
		if p.attempts >= c.tp.retry.MaxRetries &&
			!(c.tp.recoverDeadPeers && c.dst != coordRank) {
			return fmt.Errorf("netrun: rank %d -> %d: message %d (type %d) unacked after %d retries",
				c.tp.local, c.dst, p.id, p.frame.typ(), p.attempts)
		}
		c.tp.counters.retries.Add(1)
		c.tp.counters.backoffNs.Add(int64(c.tp.retry.backoffFor(p.attempts)))
		p.attempts++
		if p.queued { // link down: the attempt is charged, the frame is already in line
			c.armLocked(p)
			continue
		}
		c.tp.counters.retransmitBytes.Add(int64(p.frame.size()))
		c.stageLocked(p)
	}
	return nil
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

// refused reports whether a dial found nothing listening at its
// address: a refused TCP connection, or a unix socket whose file is gone.
func refused(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ENOENT)
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
	network  string // "tcp" or "unix"
	retry    RetryPolicy
	inj      *injector
	sever    *SeverSpec
	counters *commCounters
	// recoverDeadPeers (set when Config.Recover is on) keeps worker→worker
	// channels retrying at the backoff cap after MaxRetries instead of
	// failing the run: the coordinator's death-detection window is far
	// shorter than the retry horizon, so a genuinely dead peer gets this
	// channel redirected by takeover, while failing here would race the
	// takeover broadcast. Channels to the coordinator still fail hard.
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
	// fail receives the errors that end the run for this endpoint (see
	// watch).
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
// its frames 1, 2, 3, ... so the ids seen are a contiguous prefix plus,
// while a lost frame awaits retransmission, a few stragglers above it:
// the state is the prefix's watermark and that sparse set, O(frames in
// flight) however long the run.
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

// newTransport opens a listener ("tcp" on 127.0.0.1, "unix" on the
// given socket path pattern); serve starts accepting on it.
func newTransport(local int, network, listenAddr string, retry RetryPolicy, inj *injector, sever *SeverSpec) (*transport, error) {
	ln, err := net.Listen(network, listenAddr)
	if err != nil {
		return nil, fmt.Errorf("netrun: listen %s %s: %w", network, listenAddr, err)
	}
	tp := &transport{
		local:    local,
		network:  network,
		retry:    retry,
		inj:      inj,
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
		if !f.suppressAck {
			acks = append(acks, f.id)
		}
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

// watch routes what makes this endpoint unusable to fail: a channel
// whose retries ran out — the first one the loss-detection timer finds;
// it runs until the transport stops — or a refused dial to the
// coordinator. Call it before serve and the first send.
func (tp *transport) watch(fail func(error)) {
	tp.fail = fail
	tp.wg.Add(1)
	go func() {
		defer tp.wg.Done()
		interval := tp.retry.Timeout / 4
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-tp.stopCh:
				return
			case now := <-t.C:
				for _, c := range tp.channels() {
					if err := c.tick(now); err != nil {
						fail(err)
						return
					}
				}
			}
		}
	}()
}

// close tears the endpoint down: listener, inbound sessions, outbound
// channels, timer.
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
