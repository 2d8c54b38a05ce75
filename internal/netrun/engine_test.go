package netrun

import (
	"net"
	"strings"
	"testing"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/ptg"
	"parsec/internal/tensor"
)

// relayGraph is SRC(0), SRC(1) on rank 0 feeding MID(0) on rank 1 —
// SRC(0) its read-write flow X, which MID passes on to SINK(0) beside
// it, SRC(1) its read-only flow Y, which goes nowhere.
func relayGraph() *ptg.Graph {
	g := ptg.NewGraph("relay")
	src := g.Class("SRC")
	src.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)); emit(ptg.A1(1)) }
	src.Affinity = func(ptg.Args) int { return 0 }
	src.AddFlow("D", ptg.Write).
		InNew(nil, func(ptg.Args) int64 { return 8 }).
		Out(func(a ptg.Args) bool { return a[0] == 0 }, func(ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "MID", Args: ptg.A1(0)}, "X"
		}).
		Out(func(a ptg.Args) bool { return a[0] == 1 }, func(ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "MID", Args: ptg.A1(0)}, "Y"
		})
	mid := g.Class("MID")
	mid.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)) }
	mid.Affinity = func(ptg.Args) int { return 1 }
	mid.AddFlow("X", ptg.RW).
		In(nil, func(ptg.Args) (ptg.TaskRef, string) { return ptg.TaskRef{Class: "SRC", Args: ptg.A1(0)}, "D" }).
		Out(nil, func(ptg.Args) (ptg.TaskRef, string) { return ptg.TaskRef{Class: "SINK", Args: ptg.A1(0)}, "X" })
	mid.AddFlow("Y", ptg.Read).
		In(nil, func(ptg.Args) (ptg.TaskRef, string) { return ptg.TaskRef{Class: "SRC", Args: ptg.A1(1)}, "D" })
	sink := g.Class("SINK")
	sink.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)) }
	sink.Affinity = func(ptg.Args) int { return 1 }
	sink.AddFlow("X", ptg.Read).
		In(nil, func(ptg.Args) (ptg.TaskRef, string) { return ptg.TaskRef{Class: "MID", Args: ptg.A1(0)}, "X" })
	return g
}

// rankOne is rank 1's engine over relayGraph, with an endpoint nothing
// connects to: the tests drive its handlers and its completion hook by
// hand, as the transport and the executor would.
func rankOne(t *testing.T) *engine {
	t.Helper()
	tp, err := newTransport(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tp.close)
	tr, err := ptg.NewTracker(relayGraph())
	if err != nil {
		t.Fatal(err)
	}
	return newEngine(Config{Ranks: 2, Workers: 1}, 1, tp, tr)
}

// arrive decodes one tile activation for MID(0) the way worker.handle
// does — so the tile is a pooled one — and applies it.
func arrive(t *testing.T, e *engine, flow int, seed float64) *tensor.Tile4 {
	t.Helper()
	f, err := activateMsg{Class: "MID", Args: ptg.A1(0), Flow: flow, Payload: tile(seed)}.encode()
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeActivate(f[frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	e.handleActivate(m)
	return m.Payload.(*tensor.Tile4)
}

// finish completes an instance as the executor does after its body.
func finish(t *testing.T, e *engine, in *ptg.Instance) []*ptg.Instance {
	t.Helper()
	if err := e.tr.ClaimStart(in); err != nil {
		t.Fatal(err)
	}
	ready, err := e.complete(in, append([]any(nil), in.In...), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ready
}

// TestWireTileOwnership walks one consumer through everything that can
// happen to a tile that came off the wire: it is returned to the pool
// when the consumer completes, unless the consumer passed it on or its
// body released it (and cleared the slot); a second copy of the same
// activation is returned the moment it arrives, before the consumer has
// run and after; and every tile is accounted for exactly once.
func TestWireTileOwnership(t *testing.T) {
	e := rankOne(t)
	mid := e.tr.Instance(ptg.TaskRef{Class: "MID", Args: ptg.A1(0)})
	sink := e.tr.Instance(ptg.TaskRef{Class: "SINK", Args: ptg.A1(0)})
	c := e.tp.counters

	x := arrive(t, e, 0, 1)
	arrive(t, e, 0, 1) // the wire delivering X again, before MID ran
	if c.tilesReceived.Load() != 2 || c.tilesDuplicate.Load() != 1 {
		t.Fatalf("after X twice: received %d, duplicates %d; want 2 and 1", c.tilesReceived.Load(), c.tilesDuplicate.Load())
	}
	if mid.In[0] != any(x) {
		t.Fatal("the duplicate replaced the delivered tile")
	}
	y := arrive(t, e, 1, 2)
	if e.tr.StateOf(mid) != ptg.StateReady {
		t.Fatalf("MID has both inputs but is %v", e.tr.StateOf(mid))
	}
	if got := e.marks[mid.Seq].Load(); got != 1<<queuedBit|0b11 {
		t.Fatalf("MID's marks are %#x, want queued and flows 0 and 1 wire-delivered", got)
	}

	ready := finish(t, e, mid)
	if len(ready) != 1 || ready[0] != sink {
		t.Fatalf("completing MID readied %v, want SINK", ready)
	}
	if sink.In[0] != any(x) || x.Data == nil {
		t.Error("X, which MID passed on, did not reach SINK intact")
	}
	if mid.In[1] != nil || y.Data != nil {
		t.Error("Y, which MID did not pass on, was not returned to the pool")
	}
	if c.tilesReturned.Load() != 1 || c.tilesPassedOn.Load() != 1 {
		t.Errorf("after MID: returned %d, passed on %d; want 1 and 1", c.tilesReturned.Load(), c.tilesPassedOn.Load())
	}
	if e.marks[mid.Seq].Load()&wiredFlows != 0 {
		t.Error("MID's wire-delivered marks outlive its completion")
	}

	arrive(t, e, 1, 2) // a replay of Y after MID completed
	if c.tilesDuplicate.Load() != 2 || c.tilesReturned.Load() != 1 {
		t.Errorf("late duplicate: duplicates %d, returned %d; want 2 and 1", c.tilesDuplicate.Load(), c.tilesReturned.Load())
	}

	// SINK got X from MID in memory, not off the wire: it is SINK's body's
	// to release, and no business of the engine's.
	finish(t, e, sink)
	if c.tilesReturned.Load() != 1 || x.Data == nil {
		t.Error("the engine returned a tile that was delivered locally")
	}
	if got, want := c.tilesReceived.Load(), c.tilesReturned.Load()+c.tilesDuplicate.Load()+c.tilesPassedOn.Load(); got != want {
		t.Errorf("%d tiles received, %d accounted for", got, want)
	}
}

// TestTakeoverValidatesRanks: a takeover's two rank ids come off the
// wire and index the routing tables, so one naming a rank outside the
// run, or a rank as its own heir, fails the rank with an error.
func TestTakeoverValidatesRanks(t *testing.T) {
	for _, m := range []takeoverMsg{{Dead: 5, Heir: 1}, {Dead: -1, Heir: 1}, {Dead: 0, Heir: 2}, {Dead: 0, Heir: -1}, {Dead: 1, Heir: 1}} {
		// The failure is reported to the coordinator, so the rank needs one
		// to report to. It is made first so that it closes last.
		coord, err := newTransport(coordRank, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.close)
		coord.serve(func(int, frame) {}, nil)
		e := rankOne(t)
		e.tp.connect(coordRank, coord.addr())
		e.handleTakeover(m)
		if e.err() == nil {
			t.Errorf("takeover of rank %d by rank %d accepted in a 2-rank run", m.Dead, m.Heir)
		}
	}
}

// TestWireTileReleasedByBody is the one way a consumer other than the
// engine gives a wire-delivered tile back: its body returns the tile and
// clears the In slot, and the engine then leaves it alone.
func TestWireTileReleasedByBody(t *testing.T) {
	e := rankOne(t)
	mid := e.tr.Instance(ptg.TaskRef{Class: "MID", Args: ptg.A1(0)})
	arrive(t, e, 0, 1)
	y := arrive(t, e, 1, 2)
	if err := e.tr.ClaimStart(mid); err != nil {
		t.Fatal(err)
	}
	out := append([]any(nil), mid.In...)
	tensor.PutTile4(y) // the body, done with Y
	mid.In[1] = nil
	if _, err := e.complete(mid, out, nil); err != nil {
		t.Fatal(err)
	}
	c := e.tp.counters
	if c.tilesReturned.Load() != 0 || c.tilesPassedOn.Load() != 2 {
		t.Errorf("returned %d, passed on %d; want 0 and 2 (X forwarded, Y released by the body)",
			c.tilesReturned.Load(), c.tilesPassedOn.Load())
	}
}

// ccsdRank is rank 1 of a two-rank CCSD job, serving on a real socket as
// runWorker sets it up — GA client with input replicas, engine, inbound
// handler — but never run: frames are what the tests drive it with. Its
// failures are reported to a stand-in coordinator.
func ccsdRank(t *testing.T, plan *ccsd.CompiledPlan) *worker {
	t.Helper()
	coord, err := newTransport(coordRank, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.close)
	coord.serve(func(int, frame) {}, nil)
	tp, err := newTransport(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tp.close)
	cfg := Config{Ranks: 2, Workers: 1}
	w := &worker{cfg: cfg, rank: 1, tp: tp, welcomeCh: make(chan welcomeMsg, 1), shutCh: make(chan struct{})}
	w.gac = newGAClient(tp, plan.Workload)
	w.gac.readBlock = plan.ReadBlock
	tr, err := ptg.NewTracker(plan.NewGraph(w.gac))
	if err != nil {
		t.Fatal(err)
	}
	w.eng = newEngine(cfg, 1, tp, tr)
	w.eng.gac = w.gac
	tp.fail = w.eng.fail
	tp.serve(w.handle, nil)
	tp.connect(coordRank, coord.addr())
	return w
}

// TestTaggedActivationValidates sends a rank raw activation frames over a
// socket, as any process that reaches its port can, whose replica tag
// names no input tensor, a block outside the tensor's table, or a tile
// that is not the block's shape. Each must fail the rank with an error —
// no panic — and leave its replicas as they were: nothing adopted.
func TestTaggedActivationValidates(t *testing.T) {
	plan, err := JobSpec{Preset: "water", Variant: "v5"}.plan(2)
	if err != nil {
		t.Fatal(err)
	}
	// A GEMM on rank 1 whose A block is read on rank 0, the activation a
	// healthy rank 0 would send.
	var gemm ptg.TaskRef
	var block int
	tr, err := ptg.NewTracker(plan.NewGraph(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range tr.Instances() {
		if in.Ref.Class != "READA" || in.Node != 0 {
			continue
		}
		if g := tr.Instance(ptg.TaskRef{Class: "GEMM", Args: in.Ref.Args}); g.Node == 1 {
			gemm = g.Ref
			_, block, _ = plan.ReadBlock(in.Ref)
			break
		}
	}
	if gemm.Class == "" {
		t.Fatal("no READA on rank 0 feeds a GEMM on rank 1")
	}
	ta, _ := plan.Workload.Inputs()
	dim, layout := ta.Blocks[block].Dims, ta.Layout(block)
	otherLayout := tensor.Layout{Kind: tensor.PanelB, Strip: 8}
	if layout.Kind != tensor.RowMajor {
		otherLayout = tensor.Layout{}
	}
	wrongDims := dim
	wrongDims[3]++
	flowA := plan.NewGraph(nil).ClassByName("GEMM").MustFlowIndex("A")

	cases := []struct {
		name string
		m    activateMsg
		want string
	}{
		{"unknown tensor", activateMsg{Replica: "T", Block: block, Payload: tensor.NewTile4Layout(dim, layout)},
			`tagged with "T", not an input tensor`},
		{"unknown tensor, tag only", activateMsg{Replica: "C", Block: block}, `tagged with "C", not an input tensor`},
		{"block past the end", activateMsg{Replica: ta.Name, Block: ta.NumBlocks()}, "which has"},
		{"negative block", activateMsg{Replica: ta.Name, Block: -1, Payload: tensor.NewTile4Layout(dim, layout)}, "which has"},
		{"wrong extents", activateMsg{Replica: ta.Name, Block: block, Payload: tensor.NewTile4Layout(wrongDims, layout)}, "carries a"},
		{"wrong layout", activateMsg{Replica: ta.Name, Block: block, Payload: tensor.NewTile4Layout(dim, otherLayout)}, "carries a"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := ccsdRank(t, plan)
			conn, err := net.Dial("tcp", w.tp.addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			m := tc.m
			m.Class, m.Args, m.Flow = gemm.Class, gemm.Args, flowA
			act, err := m.encode()
			if err != nil {
				t.Fatal(err)
			}
			frames := append(sealFrame(helloMsg{From: 0}.encode(), 0), sealFrame(act, 1)...)
			if _, err := conn.Write(frames); err != nil {
				t.Fatal(err)
			}
			select {
			case <-w.eng.stopCh:
			case <-time.After(5 * time.Second):
				t.Fatal("the rank took the frame")
			}
			if err := w.eng.err(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rank failed with %v, want an error saying %q", err, tc.want)
			}
			w.gac.adoptMu.Lock()
			n := len(w.gac.adoptedTiles)
			w.gac.adoptMu.Unlock()
			if n != 0 || w.tp.counters.tilesAdopted.Load() != 0 {
				t.Errorf("%d tiles adopted from a frame the rank refused", n)
			}
			if _, resident := w.gac.Lazy(ta.Name).Adopt(block, tensor.NewTile4Layout(dim, layout)); resident {
				t.Error("the refused frame made its block resident")
			}
		})
	}
}
