package netrun

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"parsec/internal/fault"
	"parsec/internal/ptg"
	"parsec/internal/tensor"
)

// TestHealthyLinkSendsNothingTwice runs the benchmark's benzene-shaped
// job across two in-process ranks with no fault injected: on a link
// that loses nothing, no frame may be retransmitted and none may reach
// a receiver twice, and batched completions must keep the message count
// well under one per task.
func TestHealthyLinkSendsNothingTwice(t *testing.T) {
	spec := JobSpec{Variant: "v5", Custom: &CustomSpec{
		Name: "benzene-shaped", NOccupied: 21, NVirtual: 45, TileTarget: 12, NIrreps: 2, Seed: 1,
	}}
	cfg := cfgFor(t, spec, 2, 1)
	if raceEnabled {
		// The loss timer is wall-clock, and an instrumented receiver takes
		// longer than the default 100 ms to work through a socket buffer
		// of tiles: those retransmissions are the timer doing its job.
		// What the protocol itself sends twice shows at any timeout.
		cfg.Retry = DefaultRetryPolicy()
		cfg.Retry.Timeout = 5 * time.Second
	}
	res, err := Run(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.Retries != 0 || res.Recovery.DupSuppressed != 0 {
		t.Errorf("healthy link: %d retransmissions, %d duplicates suppressed; want 0 and 0",
			res.Recovery.Retries, res.Recovery.DupSuppressed)
	}
	var msgs int64
	for _, rep := range res.PerRank {
		msgs += rep.Comm.MsgsSent
	}
	if perTask := float64(msgs) / float64(res.Tasks); perTask > 0.6 {
		t.Errorf("%d messages for %d tasks (%.2f per task): completions are not batched", msgs, res.Tasks, perTask)
	}
}

// rawPeer is a bare socket standing in for a remote rank; reading and
// acknowledging are left to the test.
type rawPeer struct{ ln net.Listener }

func listenRaw(t *testing.T) rawPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return rawPeer{ln}
}

// accept takes the sender's connection and checks its hello.
func (p rawPeer) accept(t *testing.T) (*frameReader, net.Conn) {
	t.Helper()
	conn, err := p.ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fr := newFrameReader(conn)
	if f, err := fr.read(); err != nil || f.typ != msgHello {
		t.Fatalf("peer: expected hello, got type %d, %v", f.typ, err)
	}
	return fr, conn
}

// sender builds a transport with one outbound channel to addr and its
// retry timer running.
func sender(t *testing.T, retry RetryPolicy, recoverPeers bool, addr string) *transport {
	t.Helper()
	tp, err := newTransport(0, "tcp", "127.0.0.1:0", retry, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tp.close)
	tp.recoverDeadPeers = recoverPeers
	tp.serve(func(int, frame) {}, nil)
	tp.connect(1, addr)
	tp.runRetryTimer(func(err error) { t.Errorf("retry timer: %v", err) })
	return tp
}

// TestOutboxWaitIsNotLoss blocks the receiver while a frame far larger
// than any socket buffer is mid-write and a second frame waits behind it
// in the outbox, for many multiples of Retry.Timeout. The loss timer
// measures the link from the socket write, so neither frame is late:
// once the reader resumes, each must arrive exactly once with no retry
// charged.
//
// The timer is wall-clock and starts when the 48 MB write returns, which
// is when the reader is about a socket buffer short of having the whole
// frame. What the reader still does after that point — finish the read,
// acknowledge — has to fit in one Timeout or the retry is legitimate, so
// each frame is acknowledged the moment it is read and the Timeout
// leaves room for a loaded or race-instrumented reader.
func TestOutboxWaitIsNotLoss(t *testing.T) {
	retry := RetryPolicy{Timeout: 150 * time.Millisecond, Backoff: 10 * time.Millisecond,
		BackoffCap: 20 * time.Millisecond, MaxRetries: 2}
	if raceEnabled {
		retry.Timeout = 500 * time.Millisecond
	}
	peer := listenRaw(t)
	tp := sender(t, retry, false, peer.ln.Addr().String())

	big := newFrame(msgDoneInfo, 48<<20)
	tp.sendTo(1, big[:cap(big)])
	tp.sendTo(1, statusMsg{Backlog: 7}.encode())
	fr, conn := peer.accept(t)
	time.Sleep(5 * retry.Timeout) // the reader stays blocked past the whole retry horizon

	for want := uint64(1); want <= 2; want++ {
		f, err := fr.read()
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		if f.id != want {
			t.Fatalf("got frame id %d, want %d: a frame was written twice or out of turn", f.id, want)
		}
		if _, err := conn.Write(sealFrame(ackMsg{IDs: []uint64{want}}.encode(), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if !tp.waitDrained(nil, nil, 5*time.Second) {
		t.Fatal("channel not drained after both frames were acknowledged")
	}
	// Nothing else may follow: a restaged copy would be on the wire now.
	conn.SetReadDeadline(time.Now().Add(2 * retry.Timeout))
	if f, err := fr.read(); err == nil {
		t.Errorf("frame id %d arrived a second time", f.id)
	}
	if n := tp.counters.retries.Load(); n != 0 {
		t.Errorf("%d retries charged to frames that were only waiting their turn", n)
	}
}

// TestRetainedOnlyUnderRecover sends activations down a healthy link
// and checks what the channel keeps once they are acknowledged: nothing
// when recovery is off, the activation frames themselves (and only
// those) when it is on.
func TestRetainedOnlyUnderRecover(t *testing.T) {
	for _, on := range []bool{false, true} {
		peer := listenRaw(t)
		tp := sender(t, DefaultRetryPolicy(), on, peer.ln.Addr().String())
		const n = 5
		var sent [][]byte
		for i := 0; i < n; i++ {
			f, err := activateMsg{Class: "GEMM", Args: ptg.A1(i), Payload: tile(float64(i))}.encode()
			if err != nil {
				t.Fatal(err)
			}
			sent = append(sent, f)
			tp.sendTo(1, f)
			tp.sendTo(1, statusMsg{Backlog: i}.encode())
		}
		fr, conn := peer.accept(t)
		var ids []uint64
		for i := 0; i < 2*n; i++ {
			f, err := fr.read()
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, f.id)
		}
		conn.Write(sealFrame(ackMsg{IDs: ids}.encode(), 0))
		if !tp.waitDrained(nil, nil, 5*time.Second) {
			t.Fatal("channel not drained")
		}
		c := tp.chanTo(1)
		c.mu.Lock()
		retained := c.retained
		c.mu.Unlock()
		if !on {
			if len(retained) != 0 {
				t.Errorf("Recover off: channel retains %d frames at run end", len(retained))
			}
			continue
		}
		if len(retained) != n {
			t.Fatalf("Recover on: channel retains %d frames, want the %d activations", len(retained), n)
		}
		for i, f := range retained {
			if &f.head[0] != &sent[i][0] {
				t.Errorf("retained frame %d is a copy, not the sent frame's bytes", i)
			}
		}
	}
}

// TestBorrowedFramesSurviveLoss sends tile activations by reference down
// a link that loses them — seeded payload and ack drops in one run, a
// connection severed mid-burst in the other — to a real receiving
// endpoint. Every activation must arrive exactly once, its body byte for
// byte what the copying encode builds, however many times the borrowed
// tile was written; and the loss must actually have happened.
func TestBorrowedFramesSurviveLoss(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("tiles are not sent by reference on a big-endian host")
	}
	retry := RetryPolicy{Timeout: 30 * time.Millisecond, Backoff: 5 * time.Millisecond,
		BackoffCap: 20 * time.Millisecond, MaxRetries: 200}
	cases := []struct {
		name  string
		fault *fault.Config
		sever *SeverSpec
		lossy func(c *commCounters) bool
	}{
		{"drops", &fault.Config{Seed: 11, DropProb: 0.3, AckDropProb: 0.2}, nil,
			func(c *commCounters) bool { return c.retries.Load() > 0 && c.dropsInjected.Load() > 0 }},
		{"sever", nil, &SeverSpec{From: 0, To: 1, AfterFrames: 9},
			func(c *commCounters) bool { return c.severs.Load() == 1 && c.reconnects.Load() >= 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recv, err := newTransport(1, "tcp", "127.0.0.1:0", retry, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer recv.close()
			var mu sync.Mutex
			got := make(map[int][]byte) // activation index -> body
			recv.serve(func(_ int, f frame) {
				if f.typ != msgActivate {
					return
				}
				m, err := decodeActivate(f.body)
				if err != nil {
					t.Errorf("activation does not decode: %v", err)
					return
				}
				mu.Lock()
				if _, dup := got[m.Args[0]]; dup {
					t.Errorf("activation %d delivered twice", m.Args[0])
				}
				got[m.Args[0]] = append([]byte(nil), f.body...)
				mu.Unlock()
				tensor.PutTile4(m.Payload.(*tensor.Tile4))
			}, nil)

			send, err := newTransport(0, "tcp", "127.0.0.1:0", retry, newInjector(tc.fault), tc.sever)
			if err != nil {
				t.Fatal(err)
			}
			defer send.close()
			send.serve(func(int, frame) {}, nil)
			send.connect(1, recv.addr())
			send.runRetryTimer(func(err error) { t.Errorf("retry timer: %v", err) })

			const n = 24
			want := make([][]byte, n)
			for i := 0; i < n; i++ {
				tl := bigTile()
				tl.Data[0] = float64(i)
				m := activateMsg{Class: "GEMM", Args: ptg.A1(i), Flow: i % 3, Payload: tl}
				if want[i], err = m.encode(); err != nil {
					t.Fatal(err)
				}
				f, ok := m.encodeRef()
				if !ok {
					t.Fatal("tile activation not sent by reference")
				}
				send.sendFrame(1, f)
				send.sendTo(1, statusMsg{Backlog: i}.encode())
			}
			if !send.waitDrained(nil, nil, 20*time.Second) {
				t.Fatal("sender not drained")
			}
			mu.Lock()
			defer mu.Unlock()
			for i := range want {
				if !bytes.Equal(got[i], want[i][frameHeaderLen:]) {
					t.Errorf("activation %d: %d body bytes arrived, differing from the %d encode builds",
						i, len(got[i]), len(want[i])-frameHeaderLen)
				}
			}
			if !tc.lossy(send.counters) {
				t.Errorf("the link lost nothing: %+v", send.counters.snapshot())
			}
		})
	}
}

// TestDedupStaysBounded holds the receive-side duplicate filter to O(1)
// state on an in-order stream and to per-id correctness around gaps.
func TestDedupStaysBounded(t *testing.T) {
	d := dedup{above: make(map[uint64]bool)}
	for id := uint64(1); id <= 100000; id++ {
		if d.observe(id) {
			t.Fatalf("fresh id %d reported as duplicate", id)
		}
	}
	if d.low != 100000 || len(d.above) != 0 {
		t.Fatalf("after 100k in-order frames: watermark %d, %d sparse entries; want 100000 and 0", d.low, len(d.above))
	}
	for _, id := range []uint64{1, 77, 99999, 100000} {
		if !d.observe(id) {
			t.Errorf("late duplicate %d below the watermark was not suppressed", id)
		}
	}
	// A gap: 100001 is lost for a while, its successors arrive first.
	for _, id := range []uint64{100003, 100002, 100005} {
		if d.observe(id) {
			t.Errorf("id %d above a gap reported as duplicate", id)
		}
	}
	if !d.observe(100003) {
		t.Error("duplicate above the watermark was not suppressed")
	}
	if d.low != 100000 || len(d.above) != 3 {
		t.Fatalf("with 100001 outstanding: watermark %d, %d sparse entries; want 100000 and 3", d.low, len(d.above))
	}
	if d.observe(100001) {
		t.Error("the retransmitted gap id reported as duplicate")
	}
	if d.low != 100003 || len(d.above) != 1 {
		t.Fatalf("after the gap closed: watermark %d, %d sparse entries; want 100003 and 1", d.low, len(d.above))
	}
}

// BenchmarkActivateRoundTrip is one 12^4 tile's whole trip between two
// ranks: encoded by reference, written to a loopback socket from the
// tile's own storage, read and decoded into a pooled tile by a real
// receiving endpoint, and returned to the pool as the consumer's
// completion would. MB/s is frame bytes; B/op is what the trip allocates
// on both ends together, next to the 165 KB it moves.
func BenchmarkActivateRoundTrip(b *testing.B) {
	recv, err := newTransport(1, "tcp", "127.0.0.1:0", DefaultRetryPolicy(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer recv.close()
	landed := make(chan struct{}, 1) // one trip in flight at a time
	recv.serve(func(_ int, f frame) {
		m, err := decodeActivate(f.body)
		if err != nil {
			b.Error(err)
		} else {
			tensor.PutTile4(m.Payload.(*tensor.Tile4))
		}
		landed <- struct{}{}
	}, nil)
	send, err := newTransport(0, "tcp", "127.0.0.1:0", DefaultRetryPolicy(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer send.close()
	send.serve(func(int, frame) {}, nil)
	send.connect(1, recv.addr())

	m := activateMsg{Class: "GEMM", Args: ptg.A3(1, 2, 3), Flow: 1, Payload: bigTile()}
	trip := func() {
		f, ok := m.encodeRef()
		if !ok { // big-endian host: the copying encode is the data path
			enc, _ := m.encode()
			f = outFrame{head: enc}
		}
		send.sendFrame(1, f)
		<-landed
	}
	trip() // dial, and put a tile in the pool
	size, _ := payloadSize(m.Payload)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
}
