package ga

import (
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"parsec/internal/tensor"
)

// countedCase is one output block and the AccOrdered contributions it
// receives.
type countedCase struct {
	key  tensor.BlockKey
	accs []orderedAcc
}

// countedCases builds blocks covering every way a WRITE feeds a block:
// one full-range scale-1 contribution (adopted), one at another scale,
// several full-range ones (fissioned sorts), segments (a spanning
// write), and segments of several sorted matrices.
func countedCases() []countedCase {
	tile := func(seed uint64) *tensor.Tile4 {
		t := tensor.NewTile4(3, 2, 2, 3)
		t.FillRandom(seed, 1)
		return t
	}
	full := func(tag int, scale float64, src *tensor.Tile4) orderedAcc {
		return orderedAcc{tag: tag, lo: 0, hi: src.Len(), scale: scale, src: src}
	}
	var cs []countedCase
	cs = append(cs, countedCase{tensor.BlockKey{0, 0, 0, 0}, []orderedAcc{full(7, 1, tile(1))}})
	cs = append(cs, countedCase{tensor.BlockKey{0, 0, 0, 1}, []orderedAcc{full(3, 0.5, tile(2))}})
	cs = append(cs, countedCase{tensor.BlockKey{0, 1, 0, 0}, []orderedAcc{full(9, 1, tile(3)), full(8, 1, tile(4)), full(2, 1, tile(5)), full(5, 1, tile(6))}})
	seg := tile(7)
	n := seg.Len()
	var segs []orderedAcc
	for s := 0; s < 3; s++ {
		segs = append(segs, orderedAcc{tag: 4 - s, lo: s * n / 3, hi: (s + 1) * n / 3, scale: 1, src: seg})
	}
	cs = append(cs, countedCase{tensor.BlockKey{1, 0, 0, 0}, segs})
	var multi []orderedAcc
	for i, src := range []*tensor.Tile4{tile(8), tile(9)} {
		for s := 0; s < 2; s++ {
			multi = append(multi, orderedAcc{tag: 10*s + i, lo: s * n / 2, hi: (s + 1) * n / 2, scale: 1, src: src})
		}
	}
	cs = append(cs, countedCase{tensor.BlockKey{1, 1, 0, 0}, multi})
	return cs
}

// TestCountedBlocksMatchFlush: a counted array hands each block on once,
// exactly when its last contribution lands, and the tile is bitwise the
// block Array's flush builds from the same contributions — whatever
// order they arrive in, from however many goroutines, with a
// retransmitted duplicate among them, which does not count. A sole
// full-range scale-1 contribution is the block itself, not a copy.
func TestCountedBlocksMatchFlush(t *testing.T) {
	cases := countedCases()
	flushed := NewStore(1)
	flushed.Create("c")
	want := map[tensor.BlockKey]int{}
	for _, c := range cases {
		want[c.key] = len(c.accs)
		for _, a := range c.accs {
			if err := flushed.AccOrdered("c", c.key, a.src, a.scale, a.tag, a.lo, a.hi); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref := flushed.Array("c")

	for round := 0; round < 20; round++ {
		type arrival struct {
			key tensor.BlockKey
			acc orderedAcc
		}
		var all []arrival
		for _, c := range cases {
			for _, a := range c.accs {
				all = append(all, arrival{c.key, a})
			}
		}
		rng := rand.New(rand.NewSource(int64(round)))
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		// A retransmission lands before its block completes: the first
		// arrival for a block of several contributions is sent twice.
		first := 0
		for want[all[first].key] < 2 {
			first++
		}
		all[0], all[first] = all[first], all[0]

		var mu sync.Mutex
		got := map[tensor.BlockKey]*tensor.Tile4{}
		s := NewStore(1)
		countGiveBacks(t) // the cases' tiles serve every round
		s.CreateCounted("c", NewCounts(want), func(key tensor.BlockKey, tile *tensor.Tile4) {
			mu.Lock()
			defer mu.Unlock()
			if got[key] != nil {
				t.Errorf("block %v handed on twice", key)
			}
			got[key] = tile
		})
		for i := 0; i < 2; i++ {
			a := all[0]
			if err := s.AccOrdered("c", a.key, a.acc.src, a.acc.scale, a.acc.tag, a.acc.lo, a.acc.hi); err != nil {
				t.Fatal(err)
			}
		}
		all = all[1:]
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(all); i += 3 {
					a := all[i]
					if err := s.AccOrdered("c", a.key, a.acc.src, a.acc.scale, a.acc.tag, a.acc.lo, a.acc.hi); err != nil {
						t.Error(err)
					}
				}
			}(g)
		}
		wg.Wait()
		for _, c := range cases {
			tile := got[c.key]
			if tile == nil {
				t.Fatalf("round %d: block %v never completed", round, c.key)
			}
			for i, v := range tile.Data {
				if w := ref.MustTile(c.key).Data[i]; math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("round %d: block %v element %d = %v, flush gives %v", round, c.key, i, v, w)
				}
			}
			if sole := c.accs[0]; len(c.accs) == 1 && (sole.scale == 1) != (tile == sole.src) {
				t.Errorf("block %v: adopted = %v, want it adopted exactly when the sole contribution has scale 1", c.key, tile == sole.src)
			}
		}
	}
}

// TestCountedRejectsWhatItCannotCount: one contribution more than a
// block's count, a contribution to a key without a count, and a read
// through Array are all refused, the first two as errors a task body can
// fail with. Nothing is handed on before the count is reached.
func TestCountedRejectsWhatItCannotCount(t *testing.T) {
	src := tensor.NewTile4(2, 2, 1, 1)
	src.FillRandom(3, 1)
	key := tensor.BlockKey{1, 2, 3, 4}
	s := NewStore(1)
	countGiveBacks(t) // src serves every call
	done := 0
	s.CreateCounted("c", NewCounts(map[tensor.BlockKey]int{key: 2, {9, 9, 9, 9}: 0}), func(tensor.BlockKey, *tensor.Tile4) { done++ })
	if err := s.AccOrdered("c", key, src, 1, 0, 0, src.Len()); err != nil || done != 0 {
		t.Fatalf("first of two: err %v, %d blocks handed on", err, done)
	}
	if err := s.AccOrdered("c", key, src, 1, 1, 0, src.Len()); err != nil || done != 1 {
		t.Fatalf("second of two: err %v, %d blocks handed on", err, done)
	}
	for name, k := range map[string]tensor.BlockKey{"complete block": key, "uncounted key": {0, 0, 0, 0}, "zero count": {9, 9, 9, 9}} {
		err := s.AccOrdered("c", k, src, 1, 2, 0, src.Len())
		if err == nil || !strings.Contains(err.Error(), "beyond its count") {
			t.Errorf("%s: AccOrdered returned %v, want a beyond-count error", name, err)
		}
	}
	if done != 1 {
		t.Errorf("%d blocks handed on, want 1", done)
	}
	defer func() {
		if recover() == nil {
			t.Error("Array of a counted array did not panic")
		}
	}()
	s.Array("c")
}

// countGiveBacks makes the store count the tiles it gives back instead
// of pooling them, for the rest of the test, so the test may reuse its
// tiles and see how often each came back.
func countGiveBacks(t *testing.T) map[*tensor.Tile4]int {
	var mu sync.Mutex
	back := map[*tensor.Tile4]int{}
	prev := giveBack
	giveBack = func(tile *tensor.Tile4) {
		mu.Lock()
		back[tile]++
		mu.Unlock()
	}
	t.Cleanup(func() { giveBack = prev })
	return back
}

// TestCountedTilesGoBackOnce pins who gives a counted array's tiles
// back. Every tile a contribution hands the store comes back exactly
// once: after its block's fold, however many segments of it the block
// has; at a refusal, however often it is refused; or at a Reset that
// finds its block short. The one exception is a block's sole full
// contribution, which the block adopts: done receives it, as it
// receives the pooled tile a fold of several builds.
func TestCountedTilesGoBackOnce(t *testing.T) {
	seed := uint64(0)
	tile := func() *tensor.Tile4 {
		seed++
		t := tensor.NewTile4(2, 3, 1, 2)
		t.FillRandom(seed, 1)
		return t
	}
	key := func(i int) tensor.BlockKey { return tensor.BlockKey{i, 0, 0, 0} }
	back := countGiveBacks(t)
	handed := map[tensor.BlockKey]*tensor.Tile4{}
	s := NewStore(1)
	s.CreateCounted("c", NewCounts(map[tensor.BlockKey]int{key(0): 1, key(1): 3, key(2): 3, key(3): 2, key(4): 1, key(5): 4}),
		func(k tensor.BlockKey, t *tensor.Tile4) { handed[k] = t })
	acc := func(k tensor.BlockKey, src *tensor.Tile4, tag, lo, hi int) error {
		return s.AccOrdered("c", k, src, 1, tag, lo, hi)
	}
	ok := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	refused := func(err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "beyond its count") {
			t.Fatalf("AccOrdered returned %v, want a beyond-count error", err)
		}
	}
	want := map[*tensor.Tile4]int{} // how often each tile must have come back
	check := func(when string) {
		t.Helper()
		for tl := range back {
			if _, ok := want[tl]; !ok {
				want[tl] = 0
			}
		}
		for tl, n := range want {
			if back[tl] != n {
				t.Errorf("%s: a tile came back %d times, want %d", when, back[tl], n)
			}
		}
	}
	n := tile().Len()

	a := tile() // adopted
	ok(acc(key(0), a, 0, 0, n))
	want[a] = 0
	check("adopted")
	if handed[key(0)] != a {
		t.Error("a sole full contribution was not handed on as the block")
	}

	bs := []*tensor.Tile4{tile(), tile(), tile()} // several, out of order
	for i, b := range bs {
		ok(acc(key(1), b, 3-i, 0, n))
		want[b] = 1
	}
	check("several contributions")

	c := tile() // one tile in three segments
	for seg := 2; seg >= 0; seg-- {
		ok(acc(key(2), c, 7, seg*n/3, (seg+1)*n/3))
	}
	want[c] = 1
	check("shared tile")

	d1, d2 := tile(), tile() // d1 retransmitted
	ok(acc(key(3), d1, 1, 0, n))
	ok(acc(key(3), d1, 1, 0, n))
	if handed[key(3)] != nil {
		t.Fatal("a duplicate counted towards its block")
	}
	ok(acc(key(3), d2, 2, 0, n))
	want[d1], want[d2] = 1, 1
	check("duplicate")
	for k, tl := range handed {
		for _, src := range []*tensor.Tile4{bs[0], bs[1], bs[2], c, d1, d2} {
			if tl == src {
				t.Errorf("block %v of several contributions handed on a contribution's tile", k)
			}
		}
	}

	e1, e2, f := tile(), tile(), tile() // over the count
	ok(acc(key(4), e1, 0, 0, n))
	refused(acc(key(4), e2, 1, 0, n))
	refused(acc(key(4), e2, 2, 0, n))
	refused(acc(key(4), e1, 3, 0, n))  // done's tile: not the store's to give
	refused(acc(key(2), c, 8, 0, n/3)) // the fold gave it back already
	refused(acc(key(9), f, 0, 0, n/2)) // a key without a count
	refused(acc(key(9), f, 0, n/2, n))
	want[e1], want[e2], want[f] = 0, 1, 1
	check("over the count")

	g, h := tile(), tile() // a block left short by the run
	ok(acc(key(5), g, 0, 0, n/2))
	ok(acc(key(5), g, 0, n/2, n))
	ok(acc(key(5), h, 1, 0, n))
	want[g], want[h] = 0, 0
	check("short block before Reset")
	s.Reset()
	want[g], want[h] = 1, 1
	check("Reset")
	for i := 0; i < 4; i++ {
		ok(acc(key(5), h, i, 0, n))
	}
	if handed[key(5)] == nil {
		t.Error("the block left short did not complete in the run after Reset")
	}
	want[h] = 2 // h's first life ended at Reset; the four contributions share it
	check("run after Reset")
}

// TestCountedContributionsAllocateNothing: once a store and the tile
// pool are warm, a counted array's contributions allocate nothing, run
// after run — not the buffering, not the fold of several into a pooled
// tile, not the giving back, for adopted, several and segmented blocks
// alike — and switching the store between two plans' arrays (Clear,
// CreateCounted) allocates a fixed few objects, whatever the arrays'
// sizes.
func TestCountedContributionsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	layout := func(blocks int) *Counts {
		want := map[tensor.BlockKey]int{}
		for b := 0; b < blocks; b++ {
			want[tensor.BlockKey{b, 0, 0, 0}] = 1 + b%4
		}
		return NewCounts(want)
	}
	small, large := layout(8), layout(64)
	done := func(_ tensor.BlockKey, t *tensor.Tile4) { tensor.PutTile4(t) }
	s := NewStore(1)
	s.CreateCounted("c", large, done)
	const contributions = 16 * (1 + 2 + 3 + 4)
	run := func() {
		for b := 0; b < 64; b++ {
			key := tensor.BlockKey{b, 0, 0, 0}
			switch per := 1 + b%4; per {
			case 2: // one tile in two segments
				src := tensor.GetTile4(3, 4, 2, 5)
				n := src.Len()
				for seg := 0; seg < 2; seg++ {
					if err := s.AccOrdered("c", key, src, 1, 0, seg*n/2, (seg+1)*n/2); err != nil {
						t.Fatal(err)
					}
				}
			default:
				for i := 0; i < per; i++ {
					src := tensor.GetTile4(3, 4, 2, 5)
					if err := s.AccOrdered("c", key, src, 1, per-i, 0, src.Len()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		s.Reset()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("%v allocations per run of %d contributions, want 0", allocs, contributions)
	}
	switchTo := func(c *Counts) {
		s.Clear()
		s.CreateCounted("c", c, done)
	}
	switchTo(small)
	if allocs := testing.AllocsPerRun(10, func() { switchTo(large); switchTo(small) }); allocs > 2*2 {
		t.Errorf("%v allocations per two plan switches, want at most 4", allocs)
	}
}
