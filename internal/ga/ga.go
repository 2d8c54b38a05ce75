// Package ga is a Global Arrays substrate: the "shared-memory
// programming interface for distributed-memory computers" (§II-A) that
// NWChem's TCE-generated code is written against. It provides the
// distribution queries (ga_distribution / ga_access) that the PaRSEC
// inspection phase uses to locate data (§IV-B), and the calls each of
// the two codes the paper compares makes.
//
// Two implementations share the Distribution placement logic:
//
//   - Store: the PaRSEC executors' GA, a real in-memory array store for
//     shared-memory execution (unit tests, the goroutine runtime, the
//     examples). It serves only what a PaRSEC task body calls (API):
//     ga_access, ga_release and the ordered ADD_HASH_BLOCK. Its arrays
//     are created empty and written (Create), output arrays whose blocks
//     complete by count and are handed on as they do (CreateCounted), or
//     lazy read-only inputs that fill on ga_access and retire on
//     ga_release (CreateLazy, lazy.go).
//   - Sim: cost-model operations against the simulated cluster, used by
//     the CGP baseline and PaRSEC executors in the Fig 9 experiments. It
//     keeps the CGP calls the port replaces: the copying GET_HASH_BLOCK,
//     ADD_HASH_BLOCK and the NXTVAL shared counter.
package ga

import (
	"cmp"
	"fmt"
	"slices"
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
// zero-copy local read and its end (ga_access / ga_release) and the
// ordered accumulate that keeps results bitwise deterministic. Store
// implements it in one address space; internal/netrun implements it
// over sockets, reading inputs from a rank-local replica and shipping
// accumulations to the GA server process. Graph builders take an API so
// the same task bodies drive both.
type API interface {
	Access(name string, key tensor.BlockKey) *tensor.Tile4
	// Release ends the use of a block obtained through Access. It is what
	// lets a lazily filled array (Lazy) retire a block after its last
	// reader; on arrays that hold their blocks for good it does nothing.
	Release(name string, key tensor.BlockKey)
	// AccOrdered adds scale*src[lo:hi] to a block, folded in (tag, lo)
	// order whatever the order of the calls. Who owns src afterwards is
	// the implementation's to say: Store keeps the src of a counted
	// array's contribution from the call until its block is folded and
	// then gives it back to the tile pool (Store.AccOrdered); a remote
	// implementation copies it at the call, gives a whole-tile
	// contribution's src, [0, Len), back to the tile pool at once, and
	// leaves a partial one's — which the WRITEs of a spanning block
	// share — with the caller. Either way the caller must not change src
	// after the call, nor use it once the store may have given it back.
	AccOrdered(name string, key tensor.BlockKey, src *tensor.Tile4, scale float64, tag, lo, hi int) error
}

// Store is the real, shared-memory Global Arrays implementation: named
// block tensors. All methods are safe for concurrent use.
type Store struct {
	dist   Distribution
	arrays map[string]*array

	accMu sync.Mutex // guards every array's pending ordered accumulations
	// rejected are the tiles of contributions a counted array refused
	// and gave back since the last Reset, so a refused tile that
	// several contributions share goes back once. Guarded by accMu.
	rejected []*tensor.Tile4
	// spare is the contribution buffer of the largest counted array
	// Clear removed, zeroed, for the next CreateCounted: a store that
	// runs plan after plan allocates no buffer per plan.
	spare countedBuf

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
// reachable through Access / Release alone. A CreateCounted array has
// counts set and no block tensor either: its contributions buffer in
// buf, laid out by counts, and its blocks leave through done as they
// complete.
type array struct {
	bt       *tensor.BlockTensor4
	lazy     *Lazy
	buffered atomic.Bool
	pending  map[tensor.BlockKey][]orderedAcc

	counts *Counts
	buf    countedBuf
	done   func(tensor.BlockKey, *tensor.Tile4)
}

// orderedAcc is one buffered AccOrdered contribution awaiting its
// deterministic fold (foldOrdered).
type orderedAcc struct {
	tag    int
	lo, hi int
	scale  float64
	src    *tensor.Tile4
}

// Counts is how many AccOrdered contributions each block of a counted
// array receives (CreateCounted), laid out once: block key's
// contributions land in window w = window[key] of one flat buffer,
// entries off[w] to off[w+1]. A Counts is only read after NewCounts
// builds it, so one backs every execution of a plan, and a store
// buffers a contribution without allocating.
type Counts struct {
	window map[tensor.BlockKey]int32
	off    []int32
}

// NewCounts lays out want, the number of contributions each block
// receives. A negative count panics.
func NewCounts(want map[tensor.BlockKey]int) *Counts {
	c := &Counts{window: make(map[tensor.BlockKey]int32, len(want)), off: make([]int32, 1, len(want)+1)}
	for key, n := range want {
		if n < 0 {
			panic(fmt.Sprintf("ga: block %v counted %d contributions", key, n))
		}
		c.window[key] = int32(len(c.off) - 1)
		c.off = append(c.off, c.off[len(c.off)-1]+int32(n))
	}
	return c
}

// countedBuf holds a counted array's contributions: accs, one window
// per block as Counts lays them out, and fill, how many each window
// holds. A full window is a completed block. Its entries stay until
// Reset: they tell a late contribution from a first one, and whether a
// refused tile is one the block's fold already gave back.
type countedBuf struct {
	accs []orderedAcc
	fill []int32
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

// CreateCounted registers an ordered output array whose blocks complete
// by count: counts says how many AccOrdered contributions each block
// receives in all, and the call that brings a block there folds it at
// once — the fold Array's flush performs, in the same (tag, lo) order —
// and hands the final tile to done, on the calling goroutine. The array
// keeps nothing of a completed block, so it cannot be read through Array
// or Access; done owns the tile. A contribution to a key counts lacks,
// or to a block already complete, is an error.
func (s *Store) CreateCounted(name string, counts *Counts, done func(tensor.BlockKey, *tensor.Tile4)) {
	if _, dup := s.arrays[name]; dup {
		panic(fmt.Sprintf("ga: array %q already exists", name))
	}
	buf := s.spare
	s.spare = countedBuf{}
	n := int(counts.off[len(counts.off)-1])
	buf.accs = slices.Grow(buf.accs[:0], n)[:n]
	buf.fill = slices.Grow(buf.fill[:0], len(counts.off)-1)[:len(counts.off)-1]
	s.arrays[name] = &array{counts: counts, buf: buf, done: done}
}

// Reset empties the store for another run, in place: every array is
// as it was created — a lazy one with no block resident and its use
// counts full, a counted one with no contribution, any other empty.
// The tiles of a counted block still short of its count go back to the
// tile pool. What the store keeps are the arrays
// themselves, so a graph whose task bodies hold them stays bound, and
// the lazy arrays' tiles, for the next run to fill instead of
// allocating: up to keptBytes of the tiles of the run just ended, no
// more, as any an earlier run left that this one did not take back are
// let go. It is a
// full reset, also after a run that failed or was canceled part-way.
// No operation may be in flight.
func (s *Store) Reset() {
	for _, a := range s.arrays {
		switch {
		case a.lazy != nil:
			a.lazy.reset()
		case a.counts != nil:
			a.resetCounted()
		case a.bt != nil:
			a.bt = tensor.NewBlockTensor4()
		}
		clear(a.pending)
		a.buffered.Store(false)
	}
	clear(s.rejected)
	s.rejected = s.rejected[:0]
	s.lazyMem.age()
}

// resetCounted empties every window of counted array a. A window short
// of its count gives its tiles back, a tile its contributions share
// once; a full one gave them back, or handed its tile to done, when it
// completed.
func (a *array) resetCounted() {
	for w, n := range a.buf.fill {
		if lo := a.counts.off[w]; n < a.counts.off[w+1]-lo {
			giveBackTiles(a.buf.accs[lo : lo+n])
		}
	}
	clear(a.buf.accs)
	clear(a.buf.fill)
}

// Clear removes every array of a store that was just Reset, for one
// about to hold another run's arrays: the tiles Reset kept stay, for
// the lazy arrays created next, and so does the largest counted
// array's contribution buffer, for the counted array created next.
func (s *Store) Clear() {
	for _, a := range s.arrays {
		if a.counts != nil && cap(a.buf.accs) >= cap(s.spare.accs) {
			clear(a.buf.accs)
			clear(a.buf.fill)
			s.spare = a.buf
		}
	}
	clear(s.arrays)
}

// Array returns the named array, panicking if absent, lazy (a lazy array
// never holds all its blocks at once) or counted (its blocks went to its
// done callback). Intended for result extraction after execution;
// concurrent writes must go through AccOrdered.
func (s *Store) Array(name string) *tensor.BlockTensor4 {
	a, ok := s.arrays[name]
	if !ok {
		panic(fmt.Sprintf("ga: no array %q", name))
	}
	if a.lazy != nil {
		panic(fmt.Sprintf("ga: array %q is lazy: read its blocks through Access", name))
	}
	if a.counts != nil {
		panic(fmt.Sprintf("ga: array %q hands its blocks on as they complete: it holds none", name))
	}
	if a.buffered.Load() {
		s.flushOrdered(a)
	}
	return a.bt
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

// AccOrdered buffers an ADD_HASH_BLOCK-style accumulation of
// scale*src[lo:hi], tagged with a schedule-independent ordinal (the
// runtime passes the task instance's creation sequence). The buffered
// contributions are folded into the block in ascending (tag, lo) order
// the next time the array is read through Array — or, on a
// CreateCounted array, by the call that completes the block — so the
// resulting floats are bitwise identical for every worker count, queue
// mode, and scheduling policy — the "ordered reduce" invariance of
// DESIGN §6, which a sharded scheduler can no longer get for free from
// lock serialization.
//
// Who owns src: on a counted array the store does, from the call until
// the block is folded, and then gives it back to the tile pool
// (tensor.PutTile4). A tile that several contributions share — the
// segments of one sorted block — must feed one block only, and goes
// back once, after the last of them. A block's sole contribution that
// covers it at scale 1 is adopted instead: done receives src itself,
// and with it the tile. A contribution the array refuses — a duplicate,
// one past its block's count — goes back once as well, and so does one
// still buffered when the store is Reset. On an array from Create src
// stays the caller's: the flush only reads it, and the caller must not
// mutate it until then. Either way an argument error leaves src with
// the caller.
//
// Out-of-range segments are reported as errors rather than panics —
// this surface is reached from task bodies, and under fault injection a
// retried task must be able to fail cleanly. An exact duplicate of an
// already-buffered contribution (same tag, segment, scale, and source
// tile) is the signature of an at-least-once retransmission; it is
// suppressed, so a retried ACC never double-counts, and it does not
// count towards a counted block's completion.
func (s *Store) AccOrdered(name string, key tensor.BlockKey, src *tensor.Tile4, scale float64, tag, lo, hi int) error {
	a, ok := s.arrays[name]
	if !ok || a.lazy != nil {
		return fmt.Errorf("ga: AccOrdered into missing or read-only array %q", name)
	}
	acc := orderedAcc{tag: tag, lo: lo, hi: hi, scale: scale, src: src}
	var win []orderedAcc
	var err error
	if a.counts == nil {
		err = s.buffer(a, key, acc)
	} else {
		win, err = s.bufferCounted(a, key, acc)
	}
	if err != nil {
		return fmt.Errorf("ga: AccOrdered into %q: %w", name, err)
	}
	if win != nil {
		a.done(key, foldCounted(win))
	}
	return nil
}

// checkRange reports a segment that is not inside its tile.
func (acc *orderedAcc) checkRange() error {
	if acc.lo < 0 || acc.hi > acc.src.Len() || acc.lo > acc.hi {
		return fmt.Errorf("segment [%d,%d) of %d elements", acc.lo, acc.hi, acc.src.Len())
	}
	return nil
}

// buffer records acc against block key of a plain array, for its next
// flush.
func (s *Store) buffer(a *array, key tensor.BlockKey, acc orderedAcc) error {
	if err := acc.checkRange(); err != nil {
		return err
	}
	s.accMu.Lock()
	defer s.accMu.Unlock()
	if a.pending == nil {
		a.pending = make(map[tensor.BlockKey][]orderedAcc)
	}
	a.pending[key] = append(a.pending[key], acc)
	a.buffered.Store(true)
	return nil
}

// bufferCounted records acc in block key's window of counted array a and
// returns the window, in fold order, once acc fills it. A duplicate of a
// buffered contribution is dropped: its tile is the buffered one's. A
// contribution past the count is an error, and its tile goes back now
// unless the block's window or an earlier refusal holds it already. The
// count is checked before the segment: a contribution to a complete
// block may come with a tile its fold already gave back.
func (s *Store) bufferCounted(a *array, key tensor.BlockKey, acc orderedAcc) ([]orderedAcc, error) {
	s.accMu.Lock()
	defer s.accMu.Unlock()
	var lo, hi, n int32 // a key counts lacks has an empty window
	w, ok := a.counts.window[key]
	if ok {
		lo, hi, n = a.counts.off[w], a.counts.off[w+1], a.buf.fill[w]
	}
	win := a.buf.accs[lo : lo+n]
	switch {
	case lo+n == hi:
		if !holds(win, acc.src) && !slices.Contains(s.rejected, acc.src) {
			s.rejected = append(s.rejected, acc.src)
			giveBack(acc.src)
		}
		return nil, fmt.Errorf("block %v beyond its count of %d", key, hi-lo)
	case slices.Contains(win, acc):
		return nil, nil
	}
	if err := acc.checkRange(); err != nil {
		return nil, err
	}
	a.buf.accs[lo+n] = acc
	a.buf.fill[w] = n + 1
	if lo+n+1 < hi {
		return nil, nil
	}
	win = a.buf.accs[lo:hi]
	sortAccs(win)
	return win, nil
}

// flushOrdered folds the array's buffered contributions. Blocks
// are independent storage, so only the within-block order matters; that
// order is fixed by sortAccs. Deterministic results require
// that all AccOrdered calls happened-before the triggering read (i.e.
// the graph reached quiescence), which the runtime guarantees.
func (s *Store) flushOrdered(a *array) {
	s.accMu.Lock()
	m := a.pending
	a.pending = nil
	a.buffered.Store(false)
	s.accMu.Unlock()
	for key, accs := range m {
		sortAccs(accs)
		foldOrdered(accs, a.bt.GetOrCreate(key, accs[0].src.Dim))
	}
}

// sortAccs puts one block's contributions in fold order: ascending
// (tag, lo). After it a retransmitted duplicate sits next to its
// original.
func sortAccs(accs []orderedAcc) {
	slices.SortFunc(accs, func(a, b orderedAcc) int {
		if c := cmp.Compare(a.tag, b.tag); c != 0 {
			return c
		}
		return cmp.Compare(a.lo, b.lo)
	})
}

// foldOrdered folds one block's contributions, in fold order, into dst
// and returns it, skipping a duplicate of the contribution before it.
func foldOrdered(accs []orderedAcc, dst *tensor.Tile4) *tensor.Tile4 {
	for n, a := range accs {
		if n > 0 && accs[n-1] == a {
			continue
		}
		tensor.Axpy(dst.Data[a.lo:a.hi], a.src.Data[a.lo:a.hi], a.scale)
	}
	return dst
}

// foldCounted folds a completed block's window, in fold order, into the
// block's final tile. A sole contribution covering the whole block at
// scale 1 is adopted as the tile, which is 0 + 1·x up to the sign of
// zero; any other window folds into a zeroed tile from the pool, and
// its tiles go back to the pool.
func foldCounted(win []orderedAcc) *tensor.Tile4 {
	if a := win[0]; len(win) == 1 && a.scale == 1 && a.lo == 0 && a.hi == a.src.Len() {
		return a.src
	}
	d := win[0].src.Dim
	dst := foldOrdered(win, tensor.GetTile4Zeroed(d[0], d[1], d[2], d[3]))
	giveBackTiles(win)
	return dst
}

// giveBackTiles gives the tiles of accs back, a tile several of them
// share once.
func giveBackTiles(accs []orderedAcc) {
	for i, a := range accs {
		if !holds(accs[:i], a.src) {
			giveBack(a.src)
		}
	}
}

// holds says whether a contribution of accs has tile t.
func holds(accs []orderedAcc, t *tensor.Tile4) bool {
	for _, a := range accs {
		if a.src == t {
			return true
		}
	}
	return false
}

// giveBack is where a counted array's tiles go once the store is done
// with them: the tile pool. Tests replace it to count them.
var giveBack = tensor.PutTile4

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

// GetOp counts one GET and returns its charge: a fetch of owner's block
// into reqNode's memory through the strided GA one-sided path — per-row
// message overhead, the owner's service engine, and the wire. rows is
// the number of contiguous runs in the block (its matrix row count). A
// local fetch costs a pass through node memory bandwidth.
func (g *Sim) GetOp(reqNode, owner int, bytes int64, rows int) cluster.Op {
	g.gets.Add(1)
	g.getBytes.Add(bytes)
	return cluster.GAGetOp(reqNode, owner, bytes, rows)
}

// AccOp counts one accumulate and returns its charge: a read-modify-write
// of owner's block from reqNode through the same one-sided path, local
// or remote, behind any fault-injected service hiccup.
func (g *Sim) AccOp(reqNode, owner int, bytes int64, rows int) cluster.Op {
	g.accs.Add(1)
	g.accBytes.Add(bytes)
	return cluster.GAAccOp(reqNode, owner, bytes, rows)
}

// NxtVal returns the shared NXTVAL counter, whose server serializes every
// remote atomic fetch-and-increment. A caller holds any hiccup the
// machine's fault injector draws (NxtValHiccup) before it Requests the
// counter, as a stretched round trip that has not reached the server yet.
func (g *Sim) NxtVal() *sim.Counter { return g.counter }

// ResetNxtVal rewinds the shared counter. The TCE code does this between
// work levels, after the inter-level synchronization (§III-A), when no
// rank is between Request and Take.
func (g *Sim) ResetNxtVal() { g.counter = sim.NewCounter(g.mach.Eng, g.mach.Cfg.AtomicRTT) }

// Stats returns the number of Get and Acc operations performed.
func (g *Sim) Stats() (gets, accs int64) { return g.gets.Load(), g.accs.Load() }

// ByteStats returns the payload volume moved by Get and Acc operations —
// the GET-vs-ACC communication split internal/obsv reports.
func (g *Sim) ByteStats() (getBytes, accBytes int64) {
	return g.getBytes.Load(), g.accBytes.Load()
}
