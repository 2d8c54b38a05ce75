package ga

import (
	"math"
	"math/rand"
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
		s.CreateCounted("c", want, func(key tensor.BlockKey, tile *tensor.Tile4) {
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
	done := 0
	s.CreateCounted("c", map[tensor.BlockKey]int{key: 2, {9, 9, 9, 9}: 0}, func(tensor.BlockKey, *tensor.Tile4) { done++ })
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
