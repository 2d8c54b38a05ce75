// Package ga is a Global Arrays substrate: the "shared-memory
// programming interface for distributed-memory computers" (§II-A) that
// NWChem's TCE-generated code is written against. It provides the calls
// the paper names — GET_HASH_BLOCK, ADD_HASH_BLOCK, the NXTVAL shared
// counter, and the distribution queries (ga_distribution / ga_access)
// that the PaRSEC inspection phase uses to locate data (§IV-B).
//
// Two implementations share the Distribution placement logic:
//
//   - Store: a real in-memory array store for shared-memory execution
//     (unit tests, the goroutine runtime, the examples). Its arrays are
//     either created empty and written (Create) or lazy read-only
//     inputs that fill on ga_access and retire on ga_release
//     (CreateLazy, lazy.go).
//   - Sim: cost-model operations against the simulated cluster, used by
//     the CGP baseline and PaRSEC executors in the Fig 9 experiments.
package ga

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"parsec/internal/cluster"
	"parsec/internal/sim"
	"parsec/internal/tensor"
)

// Distribution maps blocks of named tensors onto nodes. Blocks are
// distributed by a deterministic hash, approximating GA's blocked
// distribution of the TCE hash arrays: placement is balanced and fixed
// before execution, and every rank can compute any block's owner locally.
type Distribution struct{ Nodes int }

// Owner returns the node owning the given block of the named tensor.
func (d Distribution) Owner(tensorName string, key tensor.BlockKey) int {
	if d.Nodes <= 0 {
		panic("ga: Distribution with no nodes")
	}
	h := uint64(14695981039346656037)
	for _, c := range []byte(tensorName) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	for _, k := range key {
		h = (h ^ uint64(uint32(k))) * 1099511628211
	}
	return int(h % uint64(d.Nodes))
}

// API is the Global Arrays surface task bodies are written against: the
// zero-copy local read and its end (ga_access / ga_release), the copying
// fetch (GET_HASH_BLOCK), and the ordered accumulate that keeps results
// bitwise deterministic. Store implements it in one address space;
// internal/netrun implements it over sockets, reading inputs from a
// rank-local replica and shipping accumulations to the GA server
// process. Graph builders take an API so the same task bodies drive
// both.
type API interface {
	Access(name string, key tensor.BlockKey) *tensor.Tile4
	// Release ends the use of a block obtained through Access. It is what
	// lets a lazily filled array (Lazy) retire a block after its last
	// reader; on arrays that hold their blocks for good it does nothing.
	Release(name string, key tensor.BlockKey)
	GetHashBlock(name string, key tensor.BlockKey) *tensor.Tile4
	AccOrdered(name string, key tensor.BlockKey, src *tensor.Tile4, scale float64, tag, lo, hi int) error
}

// Store is the real, shared-memory Global Arrays implementation: named
// block tensors plus a shared counter. All methods are safe for
// concurrent use.
type Store struct {
	dist    Distribution
	arrays  map[string]*array
	counter atomic.Int64
	// rangeLocks stripes AccRange's serialization by (array, block):
	// concurrent segment updates to different blocks proceed in
	// parallel, while writers to the same block still serialize (their
	// segments may overlap). A single global mutex here was the hottest
	// lock in the parallel-writes graphs.
	rangeLocks [rangeStripes]sync.Mutex

	accMu sync.Mutex // guards every array's pending ordered accumulations

	lazyMem lazyMem // tiles and accounting of the CreateLazy arrays
}

// array is one named array with the AccOrdered contributions awaiting
// their fold into it. buffered says whether there are any; it is written
// under accMu together with pending — set by AccOrdered, cleared by the
// flush that takes the buffer — and read without it, so reading an array
// that is never accumulated into (every input tensor) takes no lock. A
// read that must see an accumulation is ordered after it by the caller
// (the dataflow edge, or quiescence), hence also after its store to the
// flag.
//
// A CreateLazy array has lazy set and no block tensor: it is read-only,
// reachable through Access / GetHashBlock / Release alone.
type array struct {
	bt       *tensor.BlockTensor4
	lazy     *Lazy
	buffered atomic.Bool
	pending  map[tensor.BlockKey][]orderedAcc
}

// rangeStripes is the AccRange lock-stripe count: enough that tens of
// workers hashing random (array, block) pairs rarely collide, small
// enough to stay a few cache lines.
const rangeStripes = 64

// rangeLock returns the stripe serializing updates to one block, chosen
// by the same FNV hash family as Owner.
func (s *Store) rangeLock(name string, key tensor.BlockKey) *sync.Mutex {
	h := uint64(14695981039346656037)
	for _, c := range []byte(name) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	for _, k := range key {
		h = (h ^ uint64(uint32(k))) * 1099511628211
	}
	return &s.rangeLocks[h%rangeStripes]
}

// orderedAcc is one buffered AccOrdered contribution awaiting the
// deterministic fold performed by Array.
type orderedAcc struct {
	tag    int
	lo, hi int
	scale  float64
	src    *tensor.Tile4
}

var _ API = (*Store)(nil)

// NewStore returns a store distributed (logically) over the given number
// of nodes. The node count only affects Owner queries; data lives in one
// address space.
func NewStore(nodes int) *Store {
	return &Store{
		dist:   Distribution{Nodes: nodes},
		arrays: make(map[string]*array),
	}
}

// Distribution returns the store's placement function.
func (s *Store) Distribution() Distribution { return s.dist }

// Create registers an empty named array. Creating an existing name panics.
func (s *Store) Create(name string) *tensor.BlockTensor4 {
	if _, dup := s.arrays[name]; dup {
		panic(fmt.Sprintf("ga: array %q already exists", name))
	}
	bt := tensor.NewBlockTensor4()
	s.arrays[name] = &array{bt: bt}
	return bt
}

// Array returns the named array, panicking if absent or lazy (a lazy
// array never holds all its blocks at once). Intended for result
// extraction after execution; concurrent mutation must go through
// GetHashBlock / AddHashBlock.
func (s *Store) Array(name string) *tensor.BlockTensor4 {
	a, ok := s.arrays[name]
	if !ok {
		panic(fmt.Sprintf("ga: no array %q", name))
	}
	if a.lazy != nil {
		panic(fmt.Sprintf("ga: array %q is lazy: read its blocks through Access", name))
	}
	if a.buffered.Load() {
		s.flushOrdered(a)
	}
	return a.bt
}

// GetHashBlock fetches a copy of a block, like GET_HASH_BLOCK copying
// from the distributed array into a local buffer. The copy is row-major
// whatever the block's storage: ga_get returns data, not a kernel's
// private layout.
func (s *Store) GetHashBlock(name string, key tensor.BlockKey) *tensor.Tile4 {
	return s.Access(name, key).RowMajorCopy()
}

// Access returns a direct reference to a block's storage without
// copying — ga_access, which the PaRSEC port uses for its zero-copy
// reads at the owning node (§IV-B). Callers must not mutate the tile. On
// a lazy array the first access of a block fills it.
func (s *Store) Access(name string, key tensor.BlockKey) *tensor.Tile4 {
	if l := s.Lazy(name); l != nil {
		return l.AccessKey(key)
	}
	return s.Array(name).MustTile(key)
}

// Release ends one use of a block obtained through Access — ga_release.
// It counts towards a lazy array's retirement of the block and is a
// no-op on an eagerly created array, whose blocks stay.
func (s *Store) Release(name string, key tensor.BlockKey) {
	if l := s.Lazy(name); l != nil {
		l.ReleaseKey(key)
	}
}

// AddHashBlock atomically accumulates scale*src into a block, creating it
// zeroed if absent — ADD_HASH_BLOCK's Corig += Csorted. A dimension
// mismatch with an existing block is reported as an error (task bodies
// reach this surface, and under injected faults a panic here would tear
// down the whole runtime instead of failing one task).
func (s *Store) AddHashBlock(name string, key tensor.BlockKey, src *tensor.Tile4, scale float64) error {
	return s.Array(name).AccChecked(key, src, scale)
}

// AccRange atomically accumulates scale*src[lo:hi] into the element range
// [lo, hi) of a block: the per-segment update a WRITE_C instance performs
// when the block spans several nodes (Fig 8) and each instance owns one
// contiguous slice. Out-of-range segments are reported as errors.
func (s *Store) AccRange(name string, key tensor.BlockKey, src *tensor.Tile4, scale float64, lo, hi int) error {
	if lo < 0 || hi > src.Len() || lo > hi {
		return fmt.Errorf("ga: AccRange [%d,%d) of %d elements", lo, hi, src.Len())
	}
	bt := s.Array(name)
	dst := bt.GetOrCreate(key, src.Dim)
	mu := s.rangeLock(name, key)
	mu.Lock()
	tensor.Axpy(dst.Data[lo:hi], src.Data[lo:hi], scale)
	mu.Unlock()
	return nil
}

// AccOrdered buffers an ADD_HASH_BLOCK-style accumulation of
// scale*src[lo:hi], tagged with a schedule-independent ordinal (the
// runtime passes the task instance's creation sequence). The buffered
// contributions are folded into the block in ascending (tag, lo) order
// the next time the array is read through Array, so the resulting
// floats are bitwise identical for every worker count, queue mode, and
// scheduling policy — the "ordered reduce" invariance of DESIGN §6,
// which a sharded scheduler can no longer get for free from lock
// serialization. The caller must not mutate src afterwards.
//
// Out-of-range segments are reported as errors rather than panics —
// this surface is reached from task bodies, and under fault injection a
// retried task must be able to fail cleanly. An exact duplicate of an
// already-buffered contribution (same tag, segment, scale, and source
// tile) is the signature of an at-least-once retransmission; it is
// suppressed at fold time, so a retried ACC never double-counts.
func (s *Store) AccOrdered(name string, key tensor.BlockKey, src *tensor.Tile4, scale float64, tag, lo, hi int) error {
	if lo < 0 || hi > src.Len() || lo > hi {
		return fmt.Errorf("ga: AccOrdered [%d,%d) of %d elements", lo, hi, src.Len())
	}
	a, ok := s.arrays[name]
	if !ok || a.lazy != nil {
		return fmt.Errorf("ga: AccOrdered into missing or read-only array %q", name)
	}
	s.accMu.Lock()
	if a.pending == nil {
		a.pending = make(map[tensor.BlockKey][]orderedAcc)
	}
	a.pending[key] = append(a.pending[key], orderedAcc{tag: tag, lo: lo, hi: hi, scale: scale, src: src})
	a.buffered.Store(true)
	s.accMu.Unlock()
	return nil
}

// flushOrdered folds the array's buffered contributions. Blocks
// are independent storage, so only the within-block order matters; that
// order is fixed by the (tag, lo) sort. Deterministic results require
// that all AccOrdered calls happened-before the triggering read (i.e.
// the graph reached quiescence), which the runtime guarantees.
func (s *Store) flushOrdered(a *array) {
	s.accMu.Lock()
	m := a.pending
	a.pending = nil
	a.buffered.Store(false)
	s.accMu.Unlock()
	for key, accs := range m {
		sort.Slice(accs, func(i, j int) bool {
			if accs[i].tag != accs[j].tag {
				return accs[i].tag < accs[j].tag
			}
			return accs[i].lo < accs[j].lo
		})
		dst := a.bt.GetOrCreate(key, accs[0].src.Dim)
		for n, a := range accs {
			// Suppress retransmitted duplicates: after the (tag, lo) sort a
			// retried contribution sits next to its original.
			if n > 0 && accs[n-1] == a {
				continue
			}
			tensor.Axpy(dst.Data[a.lo:a.hi], a.src.Data[a.lo:a.hi], a.scale)
		}
	}
}

// NxtVal atomically fetches-and-increments the shared work-stealing
// counter (§IV-D) and returns the pre-increment value.
func (s *Store) NxtVal() int64 { return s.counter.Add(1) - 1 }

// ResetCounter rewinds the shared counter (between work levels).
func (s *Store) ResetCounter() { s.counter.Store(0) }

// Sim is the cost-model Global Arrays implementation for the simulated
// cluster. It carries no data: callers account for block sizes and the
// simulated machine charges transfer and contention costs.
type Sim struct {
	dist    Distribution
	mach    *cluster.Machine
	counter *sim.Counter

	gets, accs         atomic.Int64
	getBytes, accBytes atomic.Int64
}

// NewSim returns a simulated GA over the machine. The NXTVAL counter is
// served by a single FIFO server with the configured atomic round-trip
// time, which is exactly the scalability hazard §IV-D describes.
func NewSim(m *cluster.Machine) *Sim {
	return &Sim{
		dist:    Distribution{Nodes: m.Cfg.Nodes},
		mach:    m,
		counter: sim.NewCounter(m.Eng, m.Cfg.AtomicRTT),
	}
}

// Distribution returns the placement function (ga_distribution).
func (g *Sim) Distribution() Distribution { return g.dist }

// GetHashBlock blocks the calling process for the time to fetch a block
// owned by owner into reqNode's memory through the strided GA one-sided
// path: per-row message overhead, the owner's service engine, and the
// wire. rows is the number of contiguous runs in the block (its matrix
// row count). Local accesses cost a pass through node memory bandwidth.
func (g *Sim) GetHashBlock(p *sim.Proc, reqNode, owner int, bytes int64, rows int) {
	g.gets.Add(1)
	g.getBytes.Add(bytes)
	if reqNode == owner {
		g.mach.MemOp(p, reqNode, 2*bytes, false)
		return
	}
	g.mach.GARemoteAccess(p, reqNode, owner, bytes, rows)
}

// AddHashBlock blocks the calling process for the time to accumulate a
// block into owner's memory from reqNode (read-modify-write through the
// same one-sided path).
func (g *Sim) AddHashBlock(p *sim.Proc, reqNode, owner int, bytes int64, rows int) {
	g.accs.Add(1)
	g.accBytes.Add(bytes)
	if d := g.mach.Faults().AccHiccup(); d > 0 {
		p.Hold(d)
	}
	if reqNode == owner {
		// Even a local accumulate goes through the GA library's locked
		// strided update path, serviced by the node's one-sided engine.
		g.mach.GALocalAccess(p, owner, bytes)
		return
	}
	g.mach.GARemoteAccess(p, reqNode, owner, bytes, rows)
}

// NxtVal performs one remote atomic fetch-and-increment, serialized
// through the global counter server. A fault-injected service hiccup
// stretches the caller's round trip before it reaches the server.
func (g *Sim) NxtVal(p *sim.Proc) int64 {
	if d := g.mach.Faults().NxtValHiccup(); d > 0 {
		p.Hold(d)
	}
	return g.counter.Next(p)
}

// ResetNxtVal rewinds the shared counter. The TCE code does this between
// work levels, after the inter-level synchronization (§III-A); callers
// must ensure no process is mid-NxtVal (e.g. behind a barrier).
func (g *Sim) ResetNxtVal() { g.counter = sim.NewCounter(g.mach.Eng, g.mach.Cfg.AtomicRTT) }

// Stats returns the number of Get and Acc operations performed.
func (g *Sim) Stats() (gets, accs int64) { return g.gets.Load(), g.accs.Load() }

// ByteStats returns the payload volume moved by Get and Acc operations —
// the GET-vs-ACC communication split internal/obsv reports.
func (g *Sim) ByteStats() (getBytes, accBytes int64) {
	return g.getBytes.Load(), g.accBytes.Load()
}
