package netrun

import (
	"testing"

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
	tp, err := newTransport(1, "tcp", "127.0.0.1:0", DefaultRetryPolicy(), nil, nil)
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
	if e.ex.Backlog() != 1 {
		t.Fatalf("MID has both inputs but backlog is %d", e.ex.Backlog())
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
