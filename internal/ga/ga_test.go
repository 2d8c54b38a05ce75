package ga

import (
	"sync"
	"testing"
	"testing/quick"

	"parsec/internal/cluster"
	"parsec/internal/sim"
	"parsec/internal/tensor"
)

func TestDistributionDeterministicAndInRange(t *testing.T) {
	d := Distribution{Nodes: 7}
	seen := map[int]int{}
	for i := 0; i < 500; i++ {
		key := tensor.BlockKey{i % 9, i % 5, i % 3, i}
		o1 := d.Owner("t2", key)
		o2 := d.Owner("t2", key)
		if o1 != o2 {
			t.Fatal("Owner not deterministic")
		}
		if o1 < 0 || o1 >= 7 {
			t.Fatalf("Owner %d out of range", o1)
		}
		seen[o1]++
	}
	// Balance: every node should own something over 500 blocks.
	for n := 0; n < 7; n++ {
		if seen[n] == 0 {
			t.Errorf("node %d owns no blocks", n)
		}
	}
}

func TestDistributionNameMatters(t *testing.T) {
	d := Distribution{Nodes: 16}
	same, diff := 0, 0
	for i := 0; i < 100; i++ {
		key := tensor.BlockKey{i, i + 1, i + 2, i + 3}
		if d.Owner("t2", key) == d.Owner("v2", key) {
			same++
		} else {
			diff++
		}
	}
	if diff == 0 {
		t.Error("tensor name has no effect on placement")
	}
}

// Property: ownership is stable under Nodes and spread over all nodes for
// enough blocks.
func TestPropertyDistribution(t *testing.T) {
	f := func(nodes uint8, a, b, c, dd int16) bool {
		n := int(nodes%32) + 1
		d := Distribution{Nodes: n}
		o := d.Owner("x", tensor.BlockKey{int(a), int(b), int(c), int(dd)})
		return o >= 0 && o < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStoreCreateDuplicatePanics(t *testing.T) {
	s := NewStore(1)
	s.Create("x")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Create("x")
}

func TestStoreMissingArrayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewStore(1).Array("nope")
}

// player is a test actor that makes the charges ops, in order, through
// its one event; ends[i] is the virtual time op i finished at.
type player struct {
	m    *cluster.Machine
	ev   sim.Event
	ops  []cluster.Op
	ends []sim.Time
}

// play starts a player of ops at the current virtual time.
func play(m *cluster.Machine, ops ...cluster.Op) *player {
	p := &player{m: m, ops: ops}
	p.ev.Bind(p.resume)
	m.Eng.After(&p.ev, 0)
	return p
}

func (p *player) resume() {
	for len(p.ends) < len(p.ops) {
		if !p.m.Step(&p.ops[len(p.ends)], &p.ev) {
			return
		}
		p.ends = append(p.ends, p.m.Eng.Now())
	}
}

// taker is a test actor that takes n NXTVAL tickets from g one after the
// other, the way a cgp rank does: request the counter, hold its round
// trip once admitted, take. before, if set, runs ahead of ticket i.
type taker struct {
	g      *Sim
	ev     sim.Event
	n      int
	before func(i int)
	state  int // 0 request, 1 hold the round trip, 2 take
	vals   []int64
	end    sim.Time
}

// take starts a taker at the current virtual time.
func take(g *Sim, n int, before func(i int)) *taker {
	tk := &taker{g: g, n: n, before: before}
	tk.ev.Bind(tk.resume)
	g.mach.Eng.After(&tk.ev, 0)
	return tk
}

func (tk *taker) resume() {
	eng := tk.g.mach.Eng
	for len(tk.vals) < tk.n {
		switch tk.state {
		case 0:
			if tk.before != nil {
				tk.before(len(tk.vals))
			}
			tk.state = 1
			if tk.g.NxtVal().Request(&tk.ev) {
				return
			}
		case 1:
			tk.state = 2
			if rtt := tk.g.NxtVal().RTT; rtt > 0 {
				eng.After(&tk.ev, rtt)
				return
			}
		case 2:
			tk.vals = append(tk.vals, tk.g.NxtVal().Take())
			tk.state = 0
		}
	}
	tk.end = eng.Now()
}

func TestSimGetChargesRemotePath(t *testing.T) {
	e := sim.NewEngine()
	cfg := cluster.Small()
	cfg.JitterFrac = 0
	cfg.NICBWBytes = 1e9
	cfg.NetLatency = 0
	cfg.GAStrideLatency = 10 * sim.Microsecond
	cfg.GAServiceBW = 0.5e9
	m := cluster.New(e, cfg)
	g := NewSim(m)
	p := play(m,
		g.GetOp(0, 1, 1e6, 100), // 1ms strides + 2ms service + 1ms wire
		g.GetOp(1, 1, 1e6, 100), // local: 2MB through MemBW
	)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	remote, local := p.ends[0], p.ends[1]-p.ends[0]
	if remote < 3990*sim.Microsecond || remote > 4010*sim.Microsecond {
		t.Errorf("remote GET took %v, want ~4ms", remote)
	}
	if local >= remote {
		t.Errorf("local GET (%v) not cheaper than remote (%v)", local, remote)
	}
	gets, accs := g.Stats()
	if gets != 2 || accs != 0 {
		t.Errorf("stats = %d gets, %d accs", gets, accs)
	}
}

func TestSimNxtValSerializes(t *testing.T) {
	e := sim.NewEngine()
	cfg := cluster.Small()
	cfg.AtomicRTT = 10 * sim.Microsecond
	m := cluster.New(e, cfg)
	g := NewSim(m)
	var latest sim.Time
	const clients = 8
	var tks [clients]*taker
	for i := range tks {
		tks[i] = take(g, 1, nil)
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tks {
		latest = max(latest, tk.end)
	}
	want := sim.Time(clients) * cfg.AtomicRTT
	if latest != want {
		t.Errorf("8 serialized NXTVALs finished at %v, want %v", latest, want)
	}
}

func TestSimNxtValUnique(t *testing.T) {
	e := sim.NewEngine()
	m := cluster.New(e, cluster.Small())
	g := NewSim(m)
	var tks [4]*taker
	for i := range tks {
		tks[i] = take(g, 5, nil)
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	var vals []int64
	for _, tk := range tks {
		vals = append(vals, tk.vals...)
	}
	seen := map[int64]bool{}
	for _, v := range vals {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
	if len(vals) != 20 {
		t.Errorf("tickets = %d", len(vals))
	}
}

func TestStoreAccessZeroCopy(t *testing.T) {
	s := NewStore(2)
	key := tensor.BlockKey{1, 1, 1, 1}
	stored := s.Create("t2").GetOrCreate(key, [4]int{2, 2, 1, 1})
	stored.FillRandom(9, 1)
	// ga_access returns the stored tile itself, not a copy.
	a1 := s.Access("t2", key)
	a2 := s.Access("t2", key)
	if a1 != stored || a2 != stored {
		t.Error("Access returned a tile other than the stored one")
	}
}

func TestSimAccRemoteUsesOneSidedPath(t *testing.T) {
	e := sim.NewEngine()
	cfg := cluster.Small()
	cfg.JitterFrac = 0
	cfg.NetLatency = 0
	cfg.GAStrideLatency = 10 * sim.Microsecond
	cfg.GAServiceBW = 0.5e9
	cfg.NICBWBytes = 1e9
	m := cluster.New(e, cfg)
	g := NewSim(m)
	p := play(m,
		g.AccOp(0, 1, 1e6, 100), // strides 1ms + service 2ms + wire 1ms
		g.AccOp(1, 1, 1e6, 100), // local: through GASrv only
	)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	remote, local := p.ends[0], p.ends[1]-p.ends[0]
	if remote < 3990*sim.Microsecond || remote > 4010*sim.Microsecond {
		t.Errorf("remote ACC = %v, want ~4ms", remote)
	}
	if local >= remote {
		t.Errorf("local ACC (%v) not cheaper than remote (%v)", local, remote)
	}
	gets, accs := g.Stats()
	if gets != 0 || accs != 2 {
		t.Errorf("stats = %d gets, %d accs", gets, accs)
	}
}

func TestDistributionSingleNode(t *testing.T) {
	d := Distribution{Nodes: 1}
	for i := 0; i < 20; i++ {
		if d.Owner("x", tensor.BlockKey{i, 0, 0, 0}) != 0 {
			t.Fatal("single-node owner != 0")
		}
	}
}

func TestDistributionZeroNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Distribution{}.Owner("x", tensor.BlockKey{})
}

func TestSimResetNxtVal(t *testing.T) {
	e := sim.NewEngine()
	m := cluster.New(e, cluster.Small())
	g := NewSim(m)
	tk := take(g, 3, func(i int) {
		if i == 2 {
			g.ResetNxtVal()
		}
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	first, second := tk.vals[1], tk.vals[2]
	if first != 1 || second != 0 {
		t.Errorf("tickets = %d, %d; want 1, 0", first, second)
	}
}

func TestAccOrderedBoundsError(t *testing.T) {
	s := NewStore(1)
	s.Create("i0")
	src := tensor.NewTile4(2, 2, 1, 1)
	if err := s.AccOrdered("i0", tensor.BlockKey{}, src, 1, 0, -1, 2); err == nil {
		t.Error("expected out-of-range error from AccOrdered")
	}
	if err := s.AccOrdered("i0", tensor.BlockKey{}, src, 1, 0, 2, 99); err == nil {
		t.Error("expected out-of-range error from AccOrdered")
	}
}

// TestAccOrderedRetriedOutOfOrder is the deadlock/duplication regression
// for fault-injected runs: AccOrdered contributions arrive with shuffled
// (out-of-order) Ctx.Seq tags, one of them retransmitted (a retried ACC
// after a lost ack), while a reader concurrently flushes through Array.
// The fold must terminate (no accMu/rangeMu deadlock), suppress the
// duplicate, and produce floats bitwise identical to the in-order fold.
func TestAccOrderedRetriedOutOfOrder(t *testing.T) {
	fold := func(order []int, retry int) []float64 {
		s := NewStore(2)
		s.Create("c")
		s.Create("other")
		key := tensor.BlockKey{1, 0, 0, 0}
		srcs := make([]*tensor.Tile4, 8)
		for i := range srcs {
			srcs[i] = tensor.NewTile4(2, 2, 2, 2)
			srcs[i].FillRandom(uint64(i+1), 1)
		}
		var wg sync.WaitGroup
		done := make(chan struct{})
		go func() { // concurrent flusher: must not deadlock against writers
			defer close(done)
			for i := 0; i < 50; i++ {
				// Flushing a sibling array contends on the same ordered-
				// accumulation lock without touching "c"'s pending buffer
				// ("c" itself is only read at quiescence, as documented).
				s.Array("other")
			}
		}()
		for _, tag := range order {
			wg.Add(1)
			go func(tag int) {
				defer wg.Done()
				if err := s.AccOrdered("c", key, srcs[tag], 0.5, tag, 0, srcs[tag].Len()); err != nil {
					t.Errorf("AccOrdered tag %d: %v", tag, err)
				}
				if tag == retry {
					// Retransmission: identical tag, segment, scale, tile.
					if err := s.AccOrdered("c", key, srcs[tag], 0.5, tag, 0, srcs[tag].Len()); err != nil {
						t.Errorf("retried AccOrdered: %v", err)
					}
				}
			}(tag)
		}
		wg.Wait()
		<-done
		return s.Access("c", key).RowMajorCopy().Data
	}

	inOrder := fold([]int{0, 1, 2, 3, 4, 5, 6, 7}, -1)
	shuffled := fold([]int{5, 2, 7, 0, 3, 6, 1, 4}, 3)
	for i := range inOrder {
		if inOrder[i] != shuffled[i] {
			t.Fatalf("element %d differs: %v vs %v (retried/out-of-order fold not deterministic)", i, inOrder[i], shuffled[i])
		}
	}
}

// TestAccessLockFreeBesideOrderedAcc runs the two halves of a job's GA
// traffic against each other: readers hammering Access on an input
// array nothing accumulates into, and a writer interleaving AccOrdered
// with reads of the output array. Under -race it checks the buffered
// flag that lets the readers skip the accumulation lock; in any mode it
// checks what the flag must never cost — a read that follows an
// accumulation sees it (the staged energy kernel reads TensorC blocks
// mid-run), and an untouched array reads back unchanged.
func TestAccessLockFreeBesideOrderedAcc(t *testing.T) {
	s := NewStore(1)
	key := tensor.BlockKey{0, 1, 0, 1}
	in := s.Create("t2").GetOrCreate(key, [4]int{2, 2, 2, 2})
	in.FillRandom(11, 1)
	want := append([]float64(nil), in.Data...)
	s.Create("c")

	const readers, rounds = 4, 400
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if got := s.Access("t2", key); got != in {
					t.Errorf("Access returned a different tile: %p, want %p", got, in)
					return
				}
			}
		}()
	}
	one := tensor.NewTile4(2, 2, 2, 2)
	for i := range one.Data {
		one.Data[i] = 1
	}
	for i := 1; i <= rounds; i++ {
		if err := s.AccOrdered("c", key, one, 1, i, 0, one.Len()); err != nil {
			t.Fatal(err)
		}
		if i%4 != 0 {
			continue // let several contributions buffer up between reads
		}
		for _, v := range s.Access("c", key).RowMajorCopy().Data {
			if v != float64(i) {
				t.Fatalf("read after %d accumulations sees %v", i, v)
			}
		}
	}
	wg.Wait()
	for i, v := range s.Access("t2", key).Data {
		if v != want[i] {
			t.Fatalf("input element %d changed: %v, want %v", i, v, want[i])
		}
	}
	if err := s.AccOrdered("nope", key, one, 1, 0, 0, one.Len()); err == nil {
		t.Error("AccOrdered into an array that was never created succeeded")
	}
}
