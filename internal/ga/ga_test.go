package ga

import (
	"fmt"
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

func TestStoreGetAddRoundtrip(t *testing.T) {
	s := NewStore(4)
	s.Create("i0")
	key := tensor.BlockKey{1, 2, 3, 4}
	src := tensor.NewTile4(2, 2, 2, 2)
	src.FillRandom(1, 1)
	s.AddHashBlock("i0", key, src, 2)
	got := s.GetHashBlock("i0", key)
	want := tensor.NewTile4(2, 2, 2, 2)
	want.AddScaled(src, 2)
	if got.MaxAbsDiff(want) != 0 {
		t.Error("Add/Get roundtrip mismatch")
	}
	// GetHashBlock must return a copy.
	got.Data[0] = 1e9
	if s.GetHashBlock("i0", key).Data[0] == 1e9 {
		t.Error("GetHashBlock aliases stored data")
	}
}

func TestStoreConcurrentAdd(t *testing.T) {
	s := NewStore(2)
	s.Create("i0")
	key := tensor.BlockKey{0, 0, 0, 0}
	src := tensor.NewTile4(3, 3, 1, 1)
	for i := range src.Data {
		src.Data[i] = 1
	}
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.AddHashBlock("i0", key, src, 1)
		}()
	}
	wg.Wait()
	for _, v := range s.GetHashBlock("i0", key).Data {
		if v != n {
			t.Fatalf("lost updates: %v != %d", v, n)
		}
	}
}

func TestStoreNxtVal(t *testing.T) {
	s := NewStore(1)
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := map[int64]bool{}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				v := s.NxtVal()
				mu.Lock()
				if seen[v] {
					t.Errorf("duplicate ticket %d", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != 800 {
		t.Errorf("tickets = %d, want 800", len(seen))
	}
	s.ResetCounter()
	if v := s.NxtVal(); v != 0 {
		t.Errorf("after reset NxtVal = %d", v)
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
	var remote, local sim.Time
	e.Go("w", func(p *sim.Proc) {
		t0 := p.Now()
		g.GetHashBlock(p, 0, 1, 1e6, 100) // 1ms strides + 2ms service + 1ms wire
		remote = p.Now() - t0
		t0 = p.Now()
		g.GetHashBlock(p, 1, 1, 1e6, 100) // local: 2MB through MemBW
		local = p.Now() - t0
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
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
	for i := 0; i < clients; i++ {
		e.Go(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			g.NxtVal(p)
			if p.Now() > latest {
				latest = p.Now()
			}
		})
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
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
	var vals []int64
	for i := 0; i < 4; i++ {
		e.Go(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			for j := 0; j < 5; j++ {
				vals = append(vals, g.NxtVal(p))
			}
		})
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
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
	s.Create("t2")
	key := tensor.BlockKey{1, 1, 1, 1}
	src := tensor.NewTile4(2, 2, 1, 1)
	src.FillRandom(9, 1)
	s.AddHashBlock("t2", key, src, 1)
	// ga_access returns the stored tile itself, not a copy.
	a1 := s.Access("t2", key)
	a2 := s.Access("t2", key)
	if a1 != a2 {
		t.Error("Access returned different pointers")
	}
	if s.GetHashBlock("t2", key) == a1 {
		t.Error("GetHashBlock did not copy")
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
	var remote, local sim.Time
	e.Go("w", func(p *sim.Proc) {
		t0 := p.Now()
		g.AddHashBlock(p, 0, 1, 1e6, 100) // strides 1ms + service 2ms + wire 1ms
		remote = p.Now() - t0
		t0 = p.Now()
		g.AddHashBlock(p, 1, 1, 1e6, 100) // local: through GASrv only
		local = p.Now() - t0
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
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
	var first, second int64
	e.Go("w", func(p *sim.Proc) {
		g.NxtVal(p)
		first = g.NxtVal(p)
		g.ResetNxtVal()
		second = g.NxtVal(p)
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if first != 1 || second != 0 {
		t.Errorf("tickets = %d, %d; want 1, 0", first, second)
	}
}

func TestAccRangeSegmentsSumToFullAdd(t *testing.T) {
	s := NewStore(4)
	s.Create("i0")
	key := tensor.BlockKey{0, 1, 2, 3}
	src := tensor.NewTile4(3, 3, 2, 2)
	src.FillRandom(5, 1)
	// Three disjoint segments must together equal one full accumulate.
	n := src.Len()
	for seg := 0; seg < 3; seg++ {
		s.AccRange("i0", key, src, 2, seg*n/3, (seg+1)*n/3)
	}
	want := tensor.NewTile4(3, 3, 2, 2)
	want.AddScaled(src, 2)
	if d := s.GetHashBlock("i0", key).MaxAbsDiff(want); d != 0 {
		t.Errorf("segmented accumulate differs by %g", d)
	}
}

func TestAccRangeBoundsError(t *testing.T) {
	s := NewStore(1)
	s.Create("i0")
	src := tensor.NewTile4(2, 2, 1, 1)
	if err := s.AccRange("i0", tensor.BlockKey{}, src, 1, 2, 99); err == nil {
		t.Error("expected out-of-range error")
	}
	if err := s.AccOrdered("i0", tensor.BlockKey{}, src, 1, 0, -1, 2); err == nil {
		t.Error("expected out-of-range error from AccOrdered")
	}
	// Dimension mismatch with an existing block reports, not panics.
	if err := s.AddHashBlock("i0", tensor.BlockKey{}, src, 1); err != nil {
		t.Fatalf("first accumulate: %v", err)
	}
	other := tensor.NewTile4(3, 3, 1, 1)
	if err := s.AddHashBlock("i0", tensor.BlockKey{}, other, 1); err == nil {
		t.Error("expected dimension-mismatch error")
	}
}

func TestAccRangeConcurrentSegments(t *testing.T) {
	s := NewStore(1)
	s.Create("i0")
	key := tensor.BlockKey{}
	src := tensor.NewTile4(4, 4, 2, 2)
	for i := range src.Data {
		src.Data[i] = 1
	}
	n := src.Len()
	const span = 8
	const rounds = 16
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for seg := 0; seg < span; seg++ {
			wg.Add(1)
			go func(seg int) {
				defer wg.Done()
				s.AccRange("i0", key, src, 1, seg*n/span, (seg+1)*n/span)
			}(seg)
		}
	}
	wg.Wait()
	for _, v := range s.GetHashBlock("i0", key).Data {
		if v != rounds {
			t.Fatalf("lost segment updates: %v != %d", v, rounds)
		}
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
		return append([]float64(nil), s.GetHashBlock("c", key).Data...)
	}

	inOrder := fold([]int{0, 1, 2, 3, 4, 5, 6, 7}, -1)
	shuffled := fold([]int{5, 2, 7, 0, 3, 6, 1, 4}, 3)
	for i := range inOrder {
		if inOrder[i] != shuffled[i] {
			t.Fatalf("element %d differs: %v vs %v (retried/out-of-order fold not deterministic)", i, inOrder[i], shuffled[i])
		}
	}
}

// TestAccRangeStripedLocksCorrect pins the striped-lock refactor: heavy
// concurrent AccRange traffic across many distinct (array, block) keys —
// far more keys than stripes, so stripe collisions are guaranteed — must
// lose no updates, and same-block writers must still serialize.
func TestAccRangeStripedLocksCorrect(t *testing.T) {
	s := NewStore(4)
	arrays := []string{"c2", "x1", "i1"}
	for _, a := range arrays {
		s.Create(a)
	}
	const blocks = 128 // 384 keys over 64 stripes
	const writers = 4  // concurrent writers per key
	src := tensor.NewTile4(4, 4, 2, 2)
	for i := range src.Data {
		src.Data[i] = 1
	}
	var wg sync.WaitGroup
	for _, a := range arrays {
		for b := 0; b < blocks; b++ {
			key := tensor.BlockKey{b, b % 7, 0, 0}
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(a string, key tensor.BlockKey) {
					defer wg.Done()
					if err := s.AccRange(a, key, src, 1, 0, src.Len()); err != nil {
						t.Errorf("AccRange %s %v: %v", a, key, err)
					}
				}(a, key)
			}
		}
	}
	wg.Wait()
	for _, a := range arrays {
		for b := 0; b < blocks; b++ {
			key := tensor.BlockKey{b, b % 7, 0, 0}
			for i, v := range s.GetHashBlock(a, key).Data {
				if v != writers {
					t.Fatalf("%s %v element %d = %v, want %d (lost update under striping)",
						a, key, i, v, writers)
				}
			}
		}
	}
}

// TestRangeLockDeterministicAndSpread pins the stripe chooser: the same
// (array, block) always maps to the same stripe, and distinct keys use
// more than a handful of distinct stripes (the refactor's whole point).
func TestRangeLockDeterministicAndSpread(t *testing.T) {
	s := NewStore(1)
	used := map[*sync.Mutex]bool{}
	for b := 0; b < 256; b++ {
		key := tensor.BlockKey{b, 2 * b, 0, 1}
		m1 := s.rangeLock("c2", key)
		m2 := s.rangeLock("c2", key)
		if m1 != m2 {
			t.Fatalf("stripe for block %d not deterministic", b)
		}
		used[m1] = true
	}
	if len(used) < rangeStripes/2 {
		t.Errorf("256 keys landed on only %d of %d stripes", len(used), rangeStripes)
	}
	if s.rangeLock("c2", tensor.BlockKey{1, 0, 0, 0}) == s.rangeLock("x1", tensor.BlockKey{1, 0, 0, 0}) &&
		s.rangeLock("c2", tensor.BlockKey{2, 0, 0, 0}) == s.rangeLock("x1", tensor.BlockKey{2, 0, 0, 0}) &&
		s.rangeLock("c2", tensor.BlockKey{3, 0, 0, 0}) == s.rangeLock("x1", tensor.BlockKey{3, 0, 0, 0}) {
		t.Error("array name appears to be ignored by the stripe hash")
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
		for _, v := range s.GetHashBlock("c", key).Data {
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
