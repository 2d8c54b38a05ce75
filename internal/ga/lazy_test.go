package ga

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsec/internal/tensor"
)

// testSource is a LazySource over n blocks of one extent (or of the
// per-block extents in dims), row-major unless layout says otherwise:
// block i holds seed-of-i data, is read uses times, and counts its
// fills.
type testSource struct {
	n      int
	dims   func(i int) [4]int
	layout func(i int) tensor.Layout // nil: every block row-major
	uses   int
	fills  []atomic.Int32
	slow   time.Duration // held inside Fill, to widen the first-touch race
}

func newTestSource(n, uses int) *testSource {
	return &testSource{n: n, uses: uses, fills: make([]atomic.Int32, n),
		dims: func(int) [4]int { return [4]int{3, 2, 2, 5} }}
}

func (s *testSource) key(i int) tensor.BlockKey { return tensor.BlockKey{i, 0, 1, 2} }

func (s *testSource) NumBlocks() int    { return s.n }
func (s *testSource) Dims(i int) [4]int { return s.dims(i) }
func (s *testSource) Uses(i int) int    { return s.uses }
func (s *testSource) Layout(i int) tensor.Layout {
	if s.layout == nil {
		return tensor.Layout{}
	}
	return s.layout(i)
}
func (s *testSource) Lookup(key tensor.BlockKey) (int, bool) {
	if key[0] < 0 || key[0] >= s.n || key != s.key(key[0]) {
		return 0, false
	}
	return key[0], true
}
func (s *testSource) Fill(i int, t *tensor.Tile4) {
	time.Sleep(s.slow)
	s.fills[i].Add(1)
	t.FillRandom(uint64(1000+i), 1)
}

// want returns what block i must hold.
func (s *testSource) want(i int) *tensor.Tile4 {
	d := s.dims(i)
	t := tensor.NewTile4(d[0], d[1], d[2], d[3])
	t.FillRandom(uint64(1000+i), 1)
	return t
}

// checkBlock checks a tile read from block i: its layout is the
// source's, and its elements, unpacked, are the block's data.
func checkBlock(t *testing.T, src *testSource, i int, got *tensor.Tile4) {
	t.Helper()
	if got.Layout != src.Layout(i) {
		t.Errorf("block %d: layout %v, want %v", i, got.Layout, src.Layout(i))
		return
	}
	got = got.RowMajorCopy()
	want := src.want(i)
	if got.Dim != want.Dim {
		t.Errorf("block %d: dims %v, want %v", i, got.Dim, want.Dim)
		return
	}
	for j, v := range got.Data {
		if v != want.Data[j] {
			t.Errorf("block %d element %d = %v, want %v", i, j, v, want.Data[j])
			return
		}
	}
}

// TestLazyFillsExactlyOnceUnderConcurrentAccess: eight goroutines take
// the first access of one block at once; one fills, seven wait for it,
// all get the same tile with the right contents.
func TestLazyFillsExactlyOnceUnderConcurrentAccess(t *testing.T) {
	const readers = 8
	src := newTestSource(3, readers)
	src.slow = 2 * time.Millisecond
	s := NewStore(1)
	l := s.CreateLazy("t2", src)

	tiles := make([]*tensor.Tile4, readers)
	var start, done sync.WaitGroup
	start.Add(1)
	for r := 0; r < readers; r++ {
		done.Add(1)
		go func(r int) {
			defer done.Done()
			start.Wait()
			tiles[r] = l.Access(1)
			checkBlock(t, src, 1, tiles[r])
		}(r)
	}
	start.Done()
	done.Wait()
	for r := 1; r < readers; r++ {
		if tiles[r] != tiles[0] {
			t.Fatalf("reader %d got a different tile than reader 0", r)
		}
	}
	if n := src.fills[1].Load(); n != 1 {
		t.Errorf("block filled %d times under %d concurrent first accesses, want 1", n, readers)
	}
	if st := s.LazyStats(); st.Fills != 1 || st.Allocated != 1 || st.ResidentBytes != tiles[0].Bytes() {
		t.Errorf("stats after one fill: %+v", st)
	}
}

// TestLazyRetiresAtLastRelease: a block stays through uses-1 releases,
// retires at the last, and its tile is what the next first touch of the
// same extent fills — every element overwritten, nothing allocated.
func TestLazyRetiresAtLastRelease(t *testing.T) {
	const uses = 3
	src := newTestSource(4, uses)
	s := NewStore(1)
	l := s.CreateLazy("t2", src)

	first := l.Access(0)
	for r := 1; r < uses; r++ {
		l.Release(0)
		if got := l.Access(0); got != first {
			t.Fatalf("block left before its last release (after %d of %d)", r, uses)
		}
	}
	if st := s.LazyStats(); st.ResidentBytes != first.Bytes() {
		t.Fatalf("resident %d B before the last release, want %d", st.ResidentBytes, first.Bytes())
	}
	l.Release(0)
	if st := s.LazyStats(); st.ResidentBytes != 0 || st.PeakBytes != first.Bytes() {
		t.Fatalf("after the last release: %+v, want 0 resident, peak %d", st, first.Bytes())
	}

	// Poison the retired storage: whatever a later fill does not
	// overwrite would show.
	for i := range first.Data {
		first.Data[i] = 1e300
	}
	next := l.Access(2)
	if next != first {
		t.Error("first touch of a same-extent block did not reuse the retired tile")
	}
	checkBlock(t, src, 2, next)
	if st := s.LazyStats(); st.Allocated != 1 || st.Fills != 2 {
		t.Errorf("stats %+v, want 1 allocation for 2 fills", st)
	}
}

// TestLazyFreeListIsKeyedByExtent: a retired tile serves only first
// touches of its own extent.
func TestLazyFreeListIsKeyedByExtent(t *testing.T) {
	src := newTestSource(3, 1)
	src.dims = func(i int) [4]int { return [4]int{2 + i%2, 2, 2, 2} } // blocks 0 and 2 alike
	s := NewStore(1)
	l := s.CreateLazy("t2", src)
	t0 := l.Access(0)
	l.Release(0)
	if t1 := l.Access(1); t1 == t0 {
		t.Fatal("a block of another extent took the retired tile")
	} else {
		checkBlock(t, src, 1, t1)
	}
	if t2 := l.Access(2); t2 != t0 {
		t.Error("a block of the same extent did not take the retired tile")
	} else {
		checkBlock(t, src, 2, t2)
	}
}

// TestLazyAccessAfterRetireRefills: a reader outside the counted
// protocol still sees correct data, through the keyed surface too.
func TestLazyAccessAfterRetireRefills(t *testing.T) {
	src := newTestSource(2, 1)
	s := NewStore(1)
	s.CreateLazy("t2", src)
	key := src.key(1)

	a := s.Access("t2", key)
	checkBlock(t, src, 1, a)
	s.Release("t2", key)
	if st := s.LazyStats(); st.ResidentBytes != 0 {
		t.Fatalf("resident %d B after the only reader released", st.ResidentBytes)
	}
	checkBlock(t, src, 1, s.Access("t2", key))
	checkBlock(t, src, 1, s.Access("t2", key).RowMajorCopy())
	if n := src.fills[1].Load(); n != 2 {
		t.Errorf("block filled %d times, want 2 (first touch + refill)", n)
	}
	// The refilled block retires again after a full round of releases.
	s.Release("t2", key)
	if st := s.LazyStats(); st.ResidentBytes != 0 {
		t.Errorf("resident %d B after the refilled block's release", st.ResidentBytes)
	}
	// A lazy array is read-only.
	if err := s.AccOrdered("t2", key, a, 1, 0, 0, a.Len()); err == nil {
		t.Error("AccOrdered into a lazy array succeeded")
	}
}

// TestLazyConcurrentAccessRelease drives the counted protocol from many
// goroutines (for -race): every reader accesses, checks and releases
// every block once; all blocks end retired, each filled exactly once.
func TestLazyConcurrentAccessRelease(t *testing.T) {
	const blocks, readers = 16, 8
	src := newTestSource(blocks, readers)
	s := NewStore(1)
	l := s.CreateLazy("t2", src)
	// Hold every block until all readers have it, so no block retires
	// (and refills) while a slower reader has yet to arrive.
	var arrived, done sync.WaitGroup
	arrived.Add(readers)
	for r := 0; r < readers; r++ {
		done.Add(1)
		go func(r int) {
			defer done.Done()
			tiles := make([]*tensor.Tile4, blocks)
			for k := 0; k < blocks; k++ {
				i := (k + r) % blocks
				tiles[i] = l.Access(i)
			}
			arrived.Done()
			arrived.Wait()
			for i, tl := range tiles {
				checkBlock(t, src, i, tl)
			}
			for i := range tiles {
				l.Release(i)
			}
		}(r)
	}
	done.Wait()
	for i := range src.fills {
		if n := src.fills[i].Load(); n != 1 {
			t.Errorf("block %d filled %d times, want 1", i, n)
		}
	}
	if st := s.LazyStats(); st.ResidentBytes != 0 || st.Fills != blocks {
		t.Errorf("stats at the end: %+v, want 0 resident and %d fills", st, blocks)
	}
}

// TestEagerReleaseIsNoOp: ga_release on an array that holds its blocks
// for good changes nothing — the frozen benchmark harness hands the
// graph such a store.
func TestEagerReleaseIsNoOp(t *testing.T) {
	s := NewStore(1)
	bt := s.Create("t2")
	key := tensor.BlockKey{1, 2, 3, 4}
	bt.GetOrCreate(key, [4]int{2, 2, 2, 2}).FillRandom(5, 1)
	before := s.Access("t2", key)
	for i := 0; i < 3; i++ {
		s.Release("t2", key)
	}
	s.Release("t2", tensor.BlockKey{9, 9, 9, 9}) // absent block
	s.Release("nope", key)                       // absent array
	if s.Access("t2", key) != before || bt.NumBlocks() != 1 {
		t.Error("Release changed an eagerly created array")
	}
	if s.Lazy("t2") != nil {
		t.Error("an eager array has a lazy handle")
	}
}

// TestNewLazyNeverRetires: the stand-alone form (a netrun rank's
// replica) keeps every filled block whatever is released.
func TestNewLazyNeverRetires(t *testing.T) {
	src := newTestSource(2, 1)
	l := NewLazy(src)
	a := l.AccessKey(src.key(0))
	l.Release(0)
	l.ReleaseKey(src.key(0))
	if l.Access(0) != a || src.fills[0].Load() != 1 {
		t.Error("a never-retire array dropped or refilled a block")
	}
}

// TestLazyPanelBlocks: a source may lay a block out as a GEMM panel.
// Access returns the panel, filled straight into its layout, whose
// RowMajorCopy is FillRandom's row-major data; residency counts the
// panel's padded storage and returns to 0 when it retires; and the free
// list never hands a panel's tile to a row-major block of the same
// extents, or the reverse.
func TestLazyPanelBlocks(t *testing.T) {
	dim := [4]int{3, 2, 2, 5} // 6 x 10: a 16-wide panel pads 6 of every 16 columns
	panel := tensor.Layout{Kind: tensor.PanelB, Strip: 16}
	src := newTestSource(4, 1)
	src.layout = func(i int) tensor.Layout {
		if i%2 == 0 {
			return panel
		}
		return tensor.Layout{}
	}
	s := NewStore(1)
	l := s.CreateLazy("v2", src)
	p := l.Access(0)
	checkBlock(t, src, 0, p)
	if got := s.Access("v2", src.key(0)).RowMajorCopy(); got.Layout != (tensor.Layout{}) {
		t.Errorf("RowMajorCopy of a panel block returned a %v tile", got.Layout)
	} else if got.MaxAbsDiff(src.want(0)) != 0 || got.Len() != 60 {
		t.Error("RowMajorCopy of a panel block is not FillRandom's row-major data")
	}
	r := l.Access(1)
	checkBlock(t, src, 1, r)
	rowBytes, panelBytes := int64(60*8), int64(panel.Len(dim)*8)
	if st := s.LazyStats(); st.ResidentBytes != rowBytes+panelBytes || st.PeakBytes != st.ResidentBytes {
		t.Errorf("two resident blocks: %+v, want %d B resident (a %d B panel and a %d B row-major tile)",
			st, rowBytes+panelBytes, panelBytes, rowBytes)
	}
	l.Release(0)
	l.Release(1)
	if st := s.LazyStats(); st.ResidentBytes != 0 {
		t.Fatalf("resident %d B after both blocks retired", st.ResidentBytes)
	}
	// Blocks 2 and 3 reuse the retired tiles, each its own shape's.
	if p2, r3 := l.Access(2), l.Access(3); p2 != p || r3 != r {
		t.Errorf("free list handed out the wrong tiles: panel reused %v, row-major reused %v", p2 == p, r3 == r)
	} else {
		checkBlock(t, src, 2, p2)
		checkBlock(t, src, 3, r3)
	}
	l.Release(2)
	l.Release(3)
	if st := s.LazyStats(); st.ResidentBytes != 0 || st.Allocated != 2 || st.Fills != 4 {
		t.Errorf("stats at the end: %+v, want 0 resident, 2 tiles allocated for 4 fills", st)
	}
}

// TestLazyAdoptInstallsOnce walks a never-retiring array through Adopt: an
// absent block takes the tile it is handed, with no fill and its storage
// charged; a resident block keeps its tile, whether it got it by fill
// or by adoption, and the tile handed in is not taken; a nil tile fills
// an absent block as Access does. Concurrent Adopts of one block install
// exactly one tile.
func TestLazyAdoptInstallsOnce(t *testing.T) {
	src := newTestSource(3, 1)
	l := NewLazy(src)
	adopted := src.want(0)
	if got, resident := l.Adopt(0, adopted); resident || got != adopted {
		t.Fatalf("Adopt of absent block 0: got %p resident=%v, want the tile handed in", got, resident)
	}
	if src.fills[0].Load() != 0 || l.Access(0) != adopted {
		t.Fatal("an adopted block was filled, or Access does not return the adopted tile")
	}
	if got, resident := l.Adopt(0, src.want(0)); !resident || got != adopted {
		t.Error("a second Adopt replaced the resident block")
	}
	filled := l.Access(1)
	if got, resident := l.Adopt(1, src.want(1)); !resident || got != filled {
		t.Error("Adopt replaced a block a READ had filled")
	}
	if got, resident := l.Adopt(2, nil); resident || src.fills[2].Load() != 1 {
		t.Errorf("Adopt(2, nil): resident=%v after %d fills; want a fill", resident, src.fills[2].Load())
	} else {
		checkBlock(t, src, 2, got)
	}
	one := int64(src.Layout(0).Len(src.Dims(0))) * 8
	if st := l.mem.stats; st.ResidentBytes != 3*one || st.Fills != 2 {
		t.Errorf("stats %+v: want 3 resident blocks of %d B and 2 fills", st, one)
	}

	l = NewLazy(src)
	var wg sync.WaitGroup
	var installed atomic.Int32
	tiles := make([]*tensor.Tile4, 8)
	for g := range tiles {
		tiles[g] = src.want(0)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if got, resident := l.Adopt(0, tiles[g]); !resident {
				installed.Add(1)
				if got != tiles[g] {
					t.Error("Adopt installed a tile other than the one handed in")
				}
			}
		}(g)
	}
	wg.Wait()
	if installed.Load() != 1 {
		t.Errorf("%d concurrent Adopts installed their tile, want 1", installed.Load())
	}
}

// TestStoreResetKeepsOneRun runs a store the way an execution context
// does — a run, Reset, another — and pins what Reset keeps and what it
// does not. After a run cut short (blocks resident, one retired, one
// released part-way, a counted block half accumulated) the store reads
// like a new one: every block fills again with its own data and stays
// until its last release, the counted block takes its full count, the
// accounting is empty. The tiles are kept: the next run fills all its
// blocks without allocating one. After Clear and a run over blocks of
// another extent, the next Reset lets go of the first run's tiles,
// which that run never took back, and keeps the new run's — up to
// keptBytes.
func TestStoreResetKeepsOneRun(t *testing.T) {
	const n, uses = 4, 2
	src := newTestSource(n, uses)
	s := NewStore(1)
	l := s.CreateLazy("t2", src)
	key := tensor.BlockKey{1, 2, 3, 4}
	var done int
	countGiveBacks(t) // part serves every call
	s.CreateCounted("c", NewCounts(map[tensor.BlockKey]int{key: 2}), func(tensor.BlockKey, *tensor.Tile4) { done++ })
	part := tensor.NewTile4(1, 1, 1, 2)
	acc := func(tag int) error { return s.AccOrdered("c", key, part, 1, tag, 0, part.Len()) }

	for i := 0; i < n; i++ {
		l.Access(i)
	}
	l.Release(0)
	l.Release(0)
	l.Release(1)
	if err := acc(0); err != nil {
		t.Fatal(err)
	}
	s.Reset()

	if st := s.LazyStats(); st != (LazyStats{}) {
		t.Errorf("stats after Reset: %+v", st)
	}
	if err := errors.Join(acc(0), acc(1)); err != nil || done != 1 {
		t.Errorf("counted block after Reset: error %v, completed %d times", err, done)
	}
	for i := 0; i < n; i++ {
		checkBlock(t, src, i, l.Access(i))
	}
	resident := s.LazyStats().ResidentBytes
	for i := 0; i < n; i++ {
		l.Release(i)
	}
	if st := s.LazyStats(); st.ResidentBytes != resident {
		t.Errorf("a block retired before its last release: %d of %d B resident", st.ResidentBytes, resident)
	}
	for i := 0; i < n; i++ {
		l.Release(i)
	}
	for i := 0; i < n; i++ {
		if got := src.fills[i].Load(); got != 2 {
			t.Errorf("block %d filled %d times over two runs, want 2", i, got)
		}
	}
	if st := s.LazyStats(); st.Fills != n || st.Allocated != 0 || st.ResidentBytes != 0 {
		t.Errorf("second run: %+v, want %d fills from kept tiles and nothing resident", st, n)
	}
	s.Reset()

	s.Clear()
	other := newTestSource(n, 1)
	other.dims = func(int) [4]int { return [4]int{2, 2, 2, 2} }
	lo := s.CreateLazy("t3", other)
	if s.Lazy("t2") != nil {
		t.Error("Clear left an array behind")
	}
	for i := 0; i < n; i++ {
		checkBlock(t, other, i, lo.Access(i))
	}
	for i := 0; i < n; i++ {
		lo.Release(i)
	}
	if st := s.LazyStats(); st.Allocated != n {
		t.Errorf("run over another extent allocated %d tiles, want %d", st.Allocated, n)
	}
	s.Reset()
	if len(s.lazyMem.free) != 0 || len(s.lazyMem.old) != n {
		t.Fatalf("after the third run the store keeps %d+%d tiles, want its %d", len(s.lazyMem.free), len(s.lazyMem.old), n)
	}
	for _, tile := range s.lazyMem.old {
		if tile.Dim != [4]int{2, 2, 2, 2} {
			t.Errorf("a tile of extent %v outlived the run after its last", tile.Dim)
		}
	}

	// A run whose tiles add up to more than keptBytes leaves only
	// keptBytes of them behind.
	s.Clear()
	const mib = 1 << 20
	large := newTestSource(3*keptBytes/mib, 1)
	large.dims = func(int) [4]int { return [4]int{32, 32, 8, mib / 8 / (32 * 32 * 8)} }
	ll := s.CreateLazy("t4", large)
	for i := 0; i < large.n; i++ {
		ll.Access(i)
	}
	for i := 0; i < large.n; i++ {
		ll.Release(i)
	}
	s.Reset()
	if got := len(s.lazyMem.old); got != keptBytes/mib {
		t.Errorf("after a run of %d MiB tiles the store keeps %d of them, want %d", large.n, got, keptBytes/mib)
	}
}

// TestLazyReserveCarvesStorage walks a never-retiring array whose
// storage Reserve laid out, over blocks in row-major and both panel
// layouts: the first Access of a reserved block fills its carved tile
// and allocates nothing, every block still reads its own data, and the
// accounting counts a carved fill as a fill with its padded bytes
// charged but nothing allocated. A reserved block adopted before its
// first Access keeps the adopted tile, a block nobody reserved still
// fills into a tile of its own, and concurrent first Accesses of a
// reserved block fill its carved tile once.
func TestLazyReserveCarvesStorage(t *testing.T) {
	layouts := []tensor.Layout{{}, {Kind: tensor.PanelA, Strip: 8}, {Kind: tensor.PanelB, Strip: 16}}
	const n, unreserved = 24, 3 // the last three blocks, one of each layout
	src := newTestSource(n, 1)
	src.layout = func(i int) tensor.Layout { return layouts[i%3] }
	src.dims = func(i int) [4]int { return [4]int{3, 1 + i%4, 2, 5} }
	want := make([]bool, n)
	var bytes int64
	for i := range want {
		want[i] = i < n-unreserved
		bytes += int64(src.Layout(i).Len(src.Dims(i))) * 8
	}
	l := NewLazy(src)
	l.Reserve(want)

	const adoptedBlock = 1
	adopted := tensor.NewTile4Layout(src.Dims(adoptedBlock), src.Layout(adoptedBlock))
	adopted.FillRandom(1000+adoptedBlock, 1)
	if got, resident := l.Adopt(adoptedBlock, adopted); resident || got != adopted {
		t.Fatal("Adopt of a reserved, absent block did not take the tile handed in")
	}
	next := 0
	firstAccess := func() {
		if next == adoptedBlock {
			next++
		}
		l.Access(next)
		next++
	}
	if raceEnabled {
		for next < n-unreserved {
			firstAccess()
		}
	} else if a := testing.AllocsPerRun(n-unreserved-2, firstAccess); a != 0 {
		t.Errorf("%v allocations per first Access of a reserved block, want 0", a)
	}
	if next != n-unreserved {
		t.Fatalf("accessed %d blocks, want every reserved one", next)
	}
	for i := 0; i < n; i++ {
		checkBlock(t, src, i, l.Access(i))
		want := int32(1)
		if i == adoptedBlock {
			want = 0
		}
		if fills := src.fills[i].Load(); fills != want {
			t.Errorf("block %d filled %d times, want %d", i, fills, want)
		}
	}
	if l.Access(adoptedBlock) != adopted {
		t.Error("a reserved block lost the tile it adopted")
	}
	if st := l.mem.stats; st.Fills != n-1 || st.Allocated != unreserved || st.ResidentBytes != bytes || st.PeakBytes != bytes {
		t.Errorf("stats %+v: want %d fills, %d tiles allocated (the unreserved blocks), %d B resident",
			st, n-1, unreserved, bytes)
	}

	src = newTestSource(1, 1)
	src.slow = 2 * time.Millisecond
	l = NewLazy(src)
	l.Reserve([]bool{true})
	tiles := make([]*tensor.Tile4, 8)
	var wg sync.WaitGroup
	for g := range tiles {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tiles[g] = l.Access(0)
		}(g)
	}
	wg.Wait()
	for g := range tiles {
		if tiles[g] != &(*l.carved)[0] {
			t.Fatalf("reader %d did not get the carved tile", g)
		}
	}
	if fills := src.fills[0].Load(); fills != 1 {
		t.Errorf("a reserved block filled %d times under %d concurrent first accesses, want 1", fills, len(tiles))
	}
}
