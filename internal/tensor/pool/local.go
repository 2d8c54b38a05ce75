package pool

// Local is a worker-private scratch shard: a small per-size-class free
// list owned by exactly one goroutine at a time, with overflow to (and
// refill from) the shared sync.Pool classes. Schedulers hand one Local
// to each worker so the steady-state Get/Put traffic of task bodies and
// GEMM packing never touches a shared structure — the cross-shard
// contention killer DESIGN.md §13 describes for service-mode load.
//
// A Local's methods must only be called from the goroutine that
// currently owns it. A nil *Local is valid and falls through to the
// shared pool, so call sites can thread an optional shard without
// branching.
type Local struct {
	free  [numClasses][]*[]float64
	stash [numClasses * localDepth]*[]float64 // backing array for the free lists
	// Hits and Misses count Gets served locally vs. punted to the shared
	// pool, for tests and scheduler reporting.
	Hits, Misses int64
}

// localDepth is the free-list depth per size class per worker: deep
// enough to hold a task body's simultaneous live scratch (the GEMM A and
// B packing panels plus a couple of tiles), shallow enough that parked
// workers pin little memory.
const localDepth = 4

// NewLocal returns an empty worker-local shard.
func NewLocal() *Local {
	l := &Local{}
	for ci := range l.free {
		s := l.stash[ci*localDepth : ci*localDepth : (ci+1)*localDepth]
		l.free[ci] = s
	}
	return l
}

// Get returns a float64 slice of length n with unspecified contents,
// preferring the local free list and falling back to the shared pool.
// A nil receiver is the shared-pool path.
func (l *Local) Get(n int) []float64 {
	if l == nil {
		return Get(n)
	}
	ci := classIndex(n)
	if ci < 0 {
		return make([]float64, n)
	}
	if fl := l.free[ci]; len(fl) > 0 {
		h := fl[len(fl)-1]
		l.free[ci] = fl[:len(fl)-1]
		s := (*h)[:n]
		*h = nil
		headerPool.Put(h)
		l.Hits++
		return s
	}
	l.Misses++
	return Get(n)
}

// Put returns a slice to the local free list, overflowing to the shared
// pool when the class list is full. The caller must not retain any
// reference to s. A nil receiver is the shared-pool path.
func (l *Local) Put(s []float64) {
	if l == nil {
		Put(s)
		return
	}
	c := cap(s)
	if c == 0 {
		return
	}
	ci := classIndex(c)
	if ci < 0 || c != 1<<(minClassBits+ci) {
		return
	}
	fl := l.free[ci]
	if len(fl) == cap(fl) {
		Put(s)
		return
	}
	h := headerPool.Get().(*[]float64)
	*h = s[:c]
	l.free[ci] = append(fl, h)
}

// Drain releases every locally held slice back to the shared pool, for
// workers shutting down (service-mode job isolation requires that a
// retiring worker pins nothing).
func (l *Local) Drain() {
	if l == nil {
		return
	}
	for ci := range l.free {
		for _, h := range l.free[ci] {
			classes[ci].Put(h)
		}
		l.free[ci] = l.free[ci][:0]
	}
}
