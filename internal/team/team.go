// Package team defines the intra-task parallelism contract between the
// dense kernels and the schedulers (DESIGN.md §13). A long GEMM chain
// executes one kernel at a time, so at the tail of a run the chain's
// worker computes alone while its siblings idle; a Parallelism handle
// lets the kernel split its macro loop into parts that idle workers
// volunteer to run. The kernels only describe the split — who runs the
// parts, and whether anyone besides the caller does, is entirely the
// scheduler's decision, so lending never oversubscribes the machine.
//
// Two implementations exist: Pool (a fixed goroutine team for
// benchmarks and tests) and the real runtime's lender, which recruits
// parked workers through its park/unpark machinery. A kernel handed a
// nil handle runs serially.
package team

import (
	"sync"
	"sync/atomic"

	"parsec/internal/tensor/pool"
)

// Parallelism runs the parts of a splittable kernel, possibly
// concurrently. Implementations must guarantee that Span returns only
// after every part has completed, and that the caller's goroutine
// executes parts whenever no helper is available — a Span must make
// progress with zero helpers, which is what makes lending deadlock-free
// by construction.
type Parallelism interface {
	// Workers is an upper bound on useful concurrency including the
	// caller (>= 1). Kernels use it to choose a part count; the actual
	// helper count at execution time may be anything from zero up.
	Workers() int
	// Span runs f(part, scratch) for every part in [0, parts). scratch
	// is the executing worker's scratch shard (nil means the shared
	// pool); parts running on different workers receive different
	// shards. f must be safe to call concurrently from several
	// goroutines with distinct part numbers.
	Span(parts int, f func(part int, scratch *pool.Local))
}

// Pool is a fixed team of helper goroutines implementing Parallelism,
// for benchmarks and tests that need intra-task parallelism without a
// full scheduler. The caller participates, so a Pool of size n uses the
// calling goroutine plus n-1 helpers.
type Pool struct {
	n       int
	helpers []*helper
	locals  []*pool.Local
}

type helper struct {
	work chan *span
	quit chan struct{}
}

// span is one Span invocation's shared claim state.
type span struct {
	f     func(int, *pool.Local)
	parts int32
	next  atomic.Int32
	wg    sync.WaitGroup
}

// NewPool returns a team of size n (n-1 helper goroutines plus the
// caller). n < 1 is treated as 1. Close releases the helpers.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{n: n, locals: make([]*pool.Local, n)}
	for i := range p.locals {
		p.locals[i] = pool.NewLocal()
	}
	for i := 0; i < n-1; i++ {
		h := &helper{work: make(chan *span, 1), quit: make(chan struct{})}
		p.helpers = append(p.helpers, h)
		go p.run(h, p.locals[i+1])
	}
	return p
}

func (p *Pool) run(h *helper, loc *pool.Local) {
	for {
		select {
		case sp := <-h.work:
			for {
				i := sp.next.Add(1) - 1
				if i >= sp.parts {
					break
				}
				sp.f(int(i), loc)
			}
			sp.wg.Done()
		case <-h.quit:
			return
		}
	}
}

// Workers returns the team size including the caller.
func (p *Pool) Workers() int { return p.n }

// Span distributes parts across the helpers and the caller, returning
// when all parts have completed.
func (p *Pool) Span(parts int, f func(int, *pool.Local)) {
	if parts <= 1 || len(p.helpers) == 0 {
		for i := 0; i < parts; i++ {
			f(i, p.locals[0])
		}
		return
	}
	sp := &span{f: f, parts: int32(parts)}
	for _, h := range p.helpers {
		sp.wg.Add(1)
		h.work <- sp
	}
	for {
		i := sp.next.Add(1) - 1
		if i >= sp.parts {
			break
		}
		f(int(i), p.locals[0])
	}
	sp.wg.Wait()
}

// Close stops the helper goroutines and releases their scratch shards.
// The Pool must not be used afterwards.
func (p *Pool) Close() {
	for _, h := range p.helpers {
		close(h.quit)
	}
	for _, l := range p.locals {
		l.Drain()
	}
}
