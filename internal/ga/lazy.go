package ga

import (
	"fmt"
	"sync"
	"sync/atomic"

	"parsec/internal/tensor"
)

// LazySource describes a read-only array whose blocks are produced on
// demand: its block table and the function that generates a block's
// contents. It is a pure description — immutable, and shared by every
// Lazy bound to it — so the per-execution cost of an input array is one
// slice of block states, not a table build.
type LazySource interface {
	// NumBlocks is the number of blocks; they are numbered from 0.
	NumBlocks() int
	// Lookup resolves a block key to its number, for the keyed
	// Access/Release surface. Callers that resolved the number ahead of
	// time (the inspection phase) use Lazy.Access directly.
	Lookup(key tensor.BlockKey) (i int, ok bool)
	// Dims returns the extents of block i.
	Dims(i int) [4]int
	// Layout returns the storage layout of block i's tile: row-major, or
	// a GEMM panel the block is born packed into (tensor.Layout).
	Layout(i int) tensor.Layout
	// Uses is the number of readers of block i: the Release that
	// balances the last of them retires the block.
	Uses(i int) int
	// Fill overwrites every element of t with the contents of block i.
	// It runs under block i's lock (that is what makes concurrent first
	// accesses wait for one fill), so it must not reach back into the
	// array it fills.
	Fill(i int, t *tensor.Tile4)
}

// Lazy is an input array that fills on ga_access and retires on
// ga_release. A block goes through
//
//	empty --first Access: take a tile, Fill--> resident
//	resident --Release no. Uses(i)--> empty (tile back to the free list)
//
// and may go round again: an Access after the last Release refills, so
// a reader outside the counted protocol still sees correct data. Each
// block fills exactly once per residency — concurrent first Accesses
// wait for the one filler. All methods are safe for concurrent use.
type Lazy struct {
	src    LazySource
	blocks []lazyBlock
	mem    *lazyMem
	retire bool
}

// lazyBlock is the per-execution state of one block.
type lazyBlock struct {
	// tile is non-nil while the block is resident; readers take it
	// without the lock.
	tile atomic.Pointer[tensor.Tile4]
	// left counts the Releases remaining before retirement.
	left atomic.Int32
	// mu serializes fill and retirement of this block.
	mu sync.Mutex
}

// lazyMem is the storage behind a store's lazy arrays: the tiles retired
// blocks gave back, and the residency accounting. It is local to the
// store, so nothing outlives it: a finished or cancelled run leaves no
// tile in any process-wide pool.
type lazyMem struct {
	mu sync.Mutex
	// free holds the tiles retired in this run, old those the store's
	// last run retired and this one has not taken back (age). A block
	// reuses one of its own extents and layout, which together fix the
	// storage length, from free first. Plain slices that take scans,
	// rather than a list per shape: a run has tens of shapes and never
	// more than ~100 free tiles, and every per-shape list would grow by
	// its own allocations.
	free, old []*tensor.Tile4
	stats     LazyStats
}

// LazyStats is the residency accounting of a store's lazy arrays.
type LazyStats struct {
	// Fills counts block fills (first touches and refills).
	Fills int64
	// Allocated counts tiles taken from the heap rather than the free
	// list.
	Allocated int64
	// ResidentBytes is the storage of the blocks resident now, a
	// panel's padding included; PeakBytes its high-water mark.
	ResidentBytes, PeakBytes int64
}

// take returns a tile with extents dim in layout l for a block about to
// fill, reusing the most recently retired such tile when there is one.
// Its contents are arbitrary: Fill overwrites every element, so a reused
// tile is not zeroed. The block is charged its tile's storage, padding
// included — the measure give refunds.
func (m *lazyMem) take(dim [4]int, l tensor.Layout) *tensor.Tile4 {
	m.mu.Lock()
	t := pick(&m.free, dim, l)
	if t == nil {
		t = pick(&m.old, dim, l)
	}
	if t == nil {
		m.stats.Allocated++
	}
	m.stats.Fills++
	m.chargeLocked(int64(l.Len(dim)) * 8)
	m.mu.Unlock()
	if t == nil {
		t = tensor.NewTile4Layout(dim, l)
	}
	return t
}

// pick removes from list and returns its last tile with extents dim in
// layout l, or nil.
func pick(list *[]*tensor.Tile4, dim [4]int, l tensor.Layout) *tensor.Tile4 {
	free := *list
	for i := len(free) - 1; i >= 0; i-- {
		if f := free[i]; f.Dim == dim && f.Layout == l {
			last := len(free) - 1
			free[i], free[last] = free[last], nil
			*list = free[:last]
			return f
		}
	}
	return nil
}

// keptBytes bounds the tiles a store keeps from one run for the next.
// They are live heap between runs, and the garbage collector paces its
// heap goal against live heap, so every kept byte costs up to two of
// resident memory. The bound holds the whole input working set of a
// service-sized job (water's peak is 30 KB) and of a dispatch-bound one
// (1.3 MB for the benchmark's 12/24-orbital system); of a large job
// (32 MB for uracil) it keeps a few blocks, whose fill costs far more
// than their allocation anyway.
const keptBytes = 2 << 20

// age closes a run on the memory: the tiles it retired, up to keptBytes
// of them, become the ones the next run takes from once that run's own
// are used up, and the rest — with what the run before left untaken —
// goes to the garbage collector. So between runs a store keeps at most
// keptBytes of the tiles of its last run, whichever shapes the runs
// before had. The accounting starts over.
func (m *lazyMem) age() {
	m.mu.Lock()
	clear(m.old)
	m.old, m.free = m.free, m.old[:0]
	var kept int64
	for i, t := range m.old {
		if kept += tileBytes(t); kept > keptBytes {
			clear(m.old[i:])
			m.old = m.old[:i]
			break
		}
	}
	m.stats = LazyStats{}
	m.mu.Unlock()
}

// tileBytes is the storage of a tile, a panel's padding included.
func tileBytes(t *tensor.Tile4) int64 { return int64(t.Layout.Len(t.Dim)) * 8 }

// chargeLocked adds a newly resident block's storage to the accounting.
func (m *lazyMem) chargeLocked(bytes int64) {
	m.stats.ResidentBytes += bytes
	if m.stats.ResidentBytes > m.stats.PeakBytes {
		m.stats.PeakBytes = m.stats.ResidentBytes
	}
}

// give returns a retired block's tile to the free list.
func (m *lazyMem) give(t *tensor.Tile4) {
	m.mu.Lock()
	m.free = append(m.free, t)
	m.stats.ResidentBytes -= tileBytes(t)
	m.mu.Unlock()
}

// NewLazy returns a stand-alone lazy array that never retires: Release
// is a no-op and a resident block stays for the array's lifetime. This
// is a rank's input replica in the distributed runtime. An heir may
// re-execute a READ or a GEMM, and a block may become resident by
// adoption (Adopt) rather than by a local READ, so rank-local use counts
// mean nothing there.
func NewLazy(src LazySource) *Lazy {
	return &Lazy{src: src, blocks: make([]lazyBlock, src.NumBlocks()), mem: &lazyMem{}}
}

// CreateLazy registers a lazily filled, reference-counted input array:
// blocks fill on first Access and retire at the Release balancing their
// last reader, their tiles going to a free list shared by the store's
// lazy arrays. Creating an existing name panics.
func (s *Store) CreateLazy(name string, src LazySource) *Lazy {
	if _, dup := s.arrays[name]; dup {
		panic(fmt.Sprintf("ga: array %q already exists", name))
	}
	l := NewLazy(src)
	l.mem, l.retire = &s.lazyMem, true
	for i := range l.blocks {
		l.blocks[i].left.Store(int32(src.Uses(i)))
	}
	s.arrays[name] = &array{lazy: l}
	return l
}

// reset makes every block of the array empty, its tile back on the free
// list, with its full count of Releases to come.
func (l *Lazy) reset() {
	for i := range l.blocks {
		b := &l.blocks[i]
		if t := b.tile.Swap(nil); t != nil {
			l.mem.give(t)
		}
		b.left.Store(int32(l.src.Uses(i)))
	}
}

// Lazy returns the named array's lazy handle, or nil if the array was
// created eagerly (or not at all). Task bodies that resolved block
// numbers at inspection use it to index instead of hashing a name and a
// key per access.
func (s *Store) Lazy(name string) *Lazy {
	if a := s.arrays[name]; a != nil {
		return a.lazy
	}
	return nil
}

// LazyStats returns the residency accounting over all the store's lazy
// arrays.
func (s *Store) LazyStats() LazyStats {
	s.lazyMem.mu.Lock()
	defer s.lazyMem.mu.Unlock()
	return s.lazyMem.stats
}

// Source returns the description the array was created from.
func (l *Lazy) Source() LazySource { return l.src }

// Access returns block i's tile, filling it first if it is not
// resident — in the source's layout for it, so a born-packed block comes
// back as the GEMM panel it was generated into. Callers must not mutate
// the tile, and must not use it after the Release balancing their
// Access.
func (l *Lazy) Access(i int) *tensor.Tile4 {
	t, _ := l.Adopt(i, nil)
	return t
}

// Adopt makes block i resident without filling it: if the block is not
// resident, t becomes its tile. t must hold the block's contents in its
// extents and layout and must not change afterwards. On a never-retiring
// array (NewLazy) it is the caller's again once the array is no longer
// used; on a retiring one it goes to the free list at retirement like a
// filled tile. A nil t fills an absent block instead: that is Access.
// Adopt returns the block's tile and whether the block was already
// resident, in which case t was not taken. It is how a distributed rank
// installs an input block that arrived over the wire (netrun's replica
// tags).
func (l *Lazy) Adopt(i int, t *tensor.Tile4) (tile *tensor.Tile4, resident bool) {
	b := &l.blocks[i]
	if r := b.tile.Load(); r != nil {
		return r, true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if r := b.tile.Load(); r != nil {
		return r, true
	}
	if t == nil {
		t = l.mem.take(l.src.Dims(i), l.src.Layout(i))
		l.src.Fill(i, t)
	} else {
		l.mem.mu.Lock()
		l.mem.chargeLocked(tileBytes(t))
		l.mem.mu.Unlock()
	}
	b.tile.Store(t)
	return t, false
}

// Release ends one reader's use of block i (ga_release). The Release
// that brings the block's count to zero retires it; the count then
// starts over, so a block refilled by a later Access retires again only
// after a full round of Releases.
func (l *Lazy) Release(i int) {
	if !l.retire {
		return
	}
	b := &l.blocks[i]
	if b.left.Add(-1) != 0 {
		return
	}
	b.mu.Lock()
	t := b.tile.Swap(nil)
	b.left.Store(int32(l.src.Uses(i)))
	b.mu.Unlock()
	if t != nil {
		l.mem.give(t)
	}
}

// AccessKey is Access by block key; it panics if the key is not in the
// array's table.
func (l *Lazy) AccessKey(key tensor.BlockKey) *tensor.Tile4 {
	i, ok := l.src.Lookup(key)
	if !ok {
		panic(fmt.Sprintf("ga: block %v not in lazy array", key))
	}
	return l.Access(i)
}

// ReleaseKey is Release by block key; unknown keys are ignored.
func (l *Lazy) ReleaseKey(key tensor.BlockKey) {
	if i, ok := l.src.Lookup(key); ok {
		l.Release(i)
	}
}
