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
	// free holds the retired tiles. A block reuses one of its own extents
	// and layout, which together fix the storage length. One slice that
	// take scans, rather than a list per shape: a run has tens of shapes
	// and never more than ~100 free tiles, and every per-shape list would
	// grow by its own allocations.
	free  []*tensor.Tile4
	stats LazyStats
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
	var t *tensor.Tile4
	for i := len(m.free) - 1; i >= 0; i-- {
		if f := m.free[i]; f.Dim == dim && f.Layout == l {
			t = f
			last := len(m.free) - 1
			m.free[i], m.free[last] = m.free[last], nil
			m.free = m.free[:last]
			break
		}
	}
	if t == nil {
		m.stats.Allocated++
	}
	m.stats.Fills++
	m.stats.ResidentBytes += int64(l.Len(dim)) * 8
	if m.stats.ResidentBytes > m.stats.PeakBytes {
		m.stats.PeakBytes = m.stats.ResidentBytes
	}
	m.mu.Unlock()
	if t == nil {
		t = tensor.NewTile4Layout(dim, l)
	}
	return t
}

// give returns a retired block's tile to the free list.
func (m *lazyMem) give(t *tensor.Tile4) {
	m.mu.Lock()
	m.free = append(m.free, t)
	m.stats.ResidentBytes -= int64(t.Layout.Len(t.Dim)) * 8
	m.mu.Unlock()
}

// NewLazy returns a stand-alone lazy array that never retires: Release
// is a no-op and a filled block stays for the array's lifetime. This is
// a rank's input replica in the distributed runtime, where a stolen or
// re-executed task may read a block again and READ outputs cross ranks,
// so rank-local use counts mean nothing.
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
	b := &l.blocks[i]
	if t := b.tile.Load(); t != nil {
		return t
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.tile.Load()
	if t == nil {
		t = l.mem.take(l.src.Dims(i), l.src.Layout(i))
		l.src.Fill(i, t)
		b.tile.Store(t)
	}
	return t
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
