package netrun

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/ptg"
	"parsec/internal/tensor"
)

// TestHealthyLinkSendsNothingTwice runs the benchmark's benzene-shaped
// job across two in-process ranks with no fault injected: on a link
// that loses nothing, no frame may be retransmitted and none may reach
// a receiver twice, and batched completions must keep the message count
// well under one per task.
func TestHealthyLinkSendsNothingTwice(t *testing.T) {
	spec := benzeneShaped
	res, err := Run(cfgFor(t, spec, 2, 1), spec)
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
	// An input block crosses to a rank once: ~33 MB per job, where one
	// copy per consuming GEMM sent ~73 MB.
	const maxBytes = 36_000_000
	if res.Comm.TotalBytes > maxBytes {
		t.Errorf("%d bytes sent per job, want at most %d: input blocks are crossing twice", res.Comm.TotalBytes, maxBytes)
	}
}

// benzeneShaped is the benchmark's distributed job.
var benzeneShaped = JobSpec{Variant: "v5", Custom: &CustomSpec{
	Name: "benzene-shaped", NOccupied: 21, NVirtual: 45, TileTarget: 12, NIrreps: 2, Seed: 1,
}}

// planTraffic walks a plan's graph once in dependency order and counts
// its cross-rank deliveries: all of them, the READs' among them, and the
// distinct (input block, consumer rank) pairs those READs reach.
func planTraffic(t *testing.T, plan *ccsd.CompiledPlan) (all, reads, pairs int) {
	t.Helper()
	tr, err := ptg.NewTracker(plan.NewGraph(nil))
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		tensor      string
		block, rank int
	}
	seen := make(map[pair]bool)
	queue := tr.InitialReady()
	for len(queue) > 0 {
		in := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		dels, err := tr.Complete(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dels {
			if d.To.Node != in.Node {
				all++
				if name, i, ok := plan.ReadBlock(in.Ref); ok {
					reads++
					seen[pair{name, i, d.To.Node}] = true
				}
			}
			ready, err := tr.Deliver(d.To, d.ToFlow, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ready {
				queue = append(queue, d.To)
			}
		}
	}
	if !tr.Done() {
		t.Fatalf("%d instances never became ready", tr.Remaining())
	}
	return all, reads, len(seen)
}

// TestReplicaFramesMatchPlan counts, frame by frame, what the
// benchmark's job sends across a healthy two-rank link against what its
// plan says must cross: one activation per cross-rank delivery; of the
// READs' activations, exactly one full replica frame per distinct (input
// block, consumer rank) pair, adopted on arrival, and a tag-only frame
// for every other; every other activation an untagged tile. No tag-only
// frame finds its block absent.
func TestReplicaFramesMatchPlan(t *testing.T) {
	plan, err := benzeneShaped.plan(2)
	if err != nil {
		t.Fatal(err)
	}
	all, reads, pairs := planTraffic(t, plan)
	if pairs == 0 || pairs == reads {
		t.Fatalf("plan: %d remote READ deliveries of %d distinct (block, rank) pairs; the test needs repeats", reads, pairs)
	}
	res, err := RunPlan(cfgFor(t, benzeneShaped, 2, 1), plan)
	if err != nil {
		t.Fatal(err)
	}
	var c CommSnapshot
	for _, rep := range res.PerRank {
		c.TransferOps += rep.Comm.TransferOps
		c.TilesReceived += rep.Comm.TilesReceived
		c.TilesAdopted += rep.Comm.TilesAdopted
		c.ReplicaRefills += rep.Comm.ReplicaRefills
	}
	t.Logf("plan: %d cross-rank deliveries, %d of them READs' over %d (block, rank) pairs", all, reads, pairs)
	if c.TransferOps != int64(all) {
		t.Errorf("%d activations sent, the plan has %d cross-rank deliveries", c.TransferOps, all)
	}
	if c.TilesAdopted != int64(pairs) {
		t.Errorf("%d full replica frames adopted, want one per (block, rank) pair: %d", c.TilesAdopted, pairs)
	}
	if bare := c.TransferOps - c.TilesReceived; bare != int64(reads-pairs) {
		t.Errorf("%d tag-only frames, want remote READ deliveries - pairs = %d - %d = %d", bare, reads, pairs, reads-pairs)
	}
	if untagged := c.TilesReceived - c.TilesAdopted; untagged != int64(all-reads) {
		t.Errorf("%d untagged tile frames, want the %d cross-rank deliveries that are not READs'", untagged, all-reads)
	}
	if c.ReplicaRefills != 0 {
		t.Errorf("%d tag-only frames found their block absent on a healthy link", c.ReplicaRefills)
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

// sender builds a transport with one outbound channel to addr; a peer
// that is gone fails the test.
func sender(t *testing.T, recoverPeers bool, addr string) *transport {
	t.Helper()
	tp, err := newTransport(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tp.close)
	tp.recoverDeadPeers = recoverPeers
	tp.fail = func(err error) { t.Errorf("sender failed: %v", err) }
	tp.serve(func(int, frame) {}, nil)
	tp.connect(1, addr)
	return tp
}

// TestOutboxWaitIsNotLoss blocks the receiver for half a second while a
// frame far larger than any socket buffer is mid-write and a second
// frame waits behind it in the outbox. Waiting is not loss: once the
// reader resumes, each frame must arrive exactly once, in order, with no
// retry charged.
func TestOutboxWaitIsNotLoss(t *testing.T) {
	const stall = 500 * time.Millisecond
	peer := listenRaw(t)
	tp := sender(t, false, peer.ln.Addr().String())

	big := newFrame(msgDoneInfo, 48<<20)
	tp.sendTo(1, big[:cap(big)])
	tp.sendTo(1, newFrame(msgStatus, 0))
	fr, conn := peer.accept(t)
	time.Sleep(stall)

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
	conn.SetReadDeadline(time.Now().Add(stall))
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
		tp := sender(t, on, peer.ln.Addr().String())
		const n = 5
		var sent [][]byte
		for i := 0; i < n; i++ {
			f, err := activateMsg{Class: "GEMM", Args: ptg.A1(i), Payload: tile(float64(i))}.encode()
			if err != nil {
				t.Fatal(err)
			}
			sent = append(sent, f)
			tp.sendTo(1, f)
			tp.sendTo(1, newFrame(msgStatus, 0))
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
// a connection severed mid-burst to a real receiving endpoint. Every
// activation must arrive exactly once, its body byte for byte what the
// copying encode builds, however many times the borrowed tile was
// written; and the sever must actually have happened.
func TestBorrowedFramesSurviveLoss(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("tiles are not sent by reference on a big-endian host")
	}
	t.Run("sever", func(t *testing.T) {
		recv, err := newTransport(1, nil)
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

		send, err := newTransport(0, &SeverSpec{From: 0, To: 1, AfterFrames: 9})
		if err != nil {
			t.Fatal(err)
		}
		defer send.close()
		send.fail = func(err error) { t.Errorf("sender failed: %v", err) }
		send.serve(func(int, frame) {}, nil)
		send.connect(1, recv.addr())

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
			send.sendTo(1, newFrame(msgStatus, 0))
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
		if c := send.counters; c.severs.Load() != 1 || c.reconnects.Load() < 2 {
			t.Errorf("the link lost nothing: %+v", c.snapshot())
		}
	})
}

// TestRedialResendsWindowInOrder cuts a connection whose whole window
// was written and read but never acknowledged. The redial must write
// that window again, in send order and each frame once, charging one
// retry per frame; and the receiving endpoint, which had every frame
// already, must hand each to its handler once and count the copies as
// duplicates. The peer in the middle is a raw socket that relays what it
// reads to a real receiving transport over one connection of its own.
func TestRedialResendsWindowInOrder(t *testing.T) {
	const n = 16
	recv, err := newTransport(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.close()
	var mu sync.Mutex
	handled := make(map[uint64]int)
	recv.serve(func(_ int, f frame) {
		mu.Lock()
		handled[f.id]++
		mu.Unlock()
	}, nil)
	up, err := net.Dial("tcp", recv.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	if _, err := up.Write(sealFrame(helloMsg{From: 0}.encode(), 0)); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, up) // the receiver's acks never reach the sender

	peer := listenRaw(t)
	tp := sender(t, false, peer.ln.Addr().String())
	for i := 0; i < n; i++ {
		tp.sendTo(1, newFrame(msgStatus, 0))
	}
	relay := func(fr *frameReader) []uint64 {
		t.Helper()
		var ids []uint64
		for len(ids) < n {
			f, err := fr.read()
			if err != nil {
				t.Fatalf("after %d frames: %v", len(ids), err)
			}
			ids = append(ids, f.id)
			if _, err := up.Write(rawFrame(f.typ, f.id, f.body)); err != nil {
				t.Fatal(err)
			}
		}
		return ids
	}
	fr, conn := peer.accept(t)
	relay(fr)
	conn.Close() // the window is written and read, and not one frame acknowledged

	fr, conn = peer.accept(t)
	ids := relay(fr)
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Fatalf("the redial wrote ids %v, want 1..%d in send order", ids, n)
		}
	}
	if _, err := conn.Write(sealFrame(ackMsg{IDs: ids}.encode(), 0)); err != nil {
		t.Fatal(err)
	}
	if !tp.waitDrained(nil, nil, 5*time.Second) {
		t.Fatal("channel not drained after the resent window was acknowledged")
	}
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if f, err := fr.read(); err == nil {
		t.Errorf("frame id %d written a third time", f.id)
	}
	if r := tp.counters.retries.Load(); r != n {
		t.Errorf("%d retries charged, want %d: one per frame the redial wrote again", r, n)
	}

	deadline := time.Now().Add(5 * time.Second)
	for recv.counters.dupSuppressed.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := recv.counters.dupSuppressed.Load(); d != n {
		t.Errorf("receiver suppressed %d duplicates, want %d", d, n)
	}
	mu.Lock()
	defer mu.Unlock()
	for id := uint64(1); id <= n; id++ {
		if handled[id] != 1 {
			t.Errorf("frame %d handled %d times, want once", id, handled[id])
		}
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
	recv, err := newTransport(1, nil)
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
	send, err := newTransport(0, nil)
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
