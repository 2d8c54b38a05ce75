// Package pool is the scratch allocator behind the dense-kernel layer:
// a size-class bucketed, sync.Pool-backed recycler for float64 scratch
// slices. The GEMM packing buffers and the DFILL/REDUCE/SORT task bodies
// draw their working storage from here, so steady-state real execution
// performs no per-task heap allocation on the hot path (DESIGN.md §8).
//
// Slices are bucketed by capacity into power-of-two size classes; Get
// returns a slice of the exact requested length whose capacity is the
// class size. Requests above the largest class fall through to the heap
// and Put discards them, bounding the memory the pool can pin.
package pool

import (
	"math/bits"
	"sync"
)

const (
	// minClassBits is the smallest pooled class (1<<minClassBits
	// float64s = 2 KiB). Smaller requests share it.
	minClassBits = 8
	// maxClassBits is the largest pooled class (1<<maxClassBits
	// float64s = 128 MiB), comfortably above the beta-carotene tile
	// (36*37*36*37 ≈ 1.8M elements) and its GEMM packing panels.
	maxClassBits = 24
	numClasses   = maxClassBits - minClassBits + 1
)

// classes[i] pools *[]float64 headers whose slices have capacity exactly
// 1<<(minClassBits+i). Headers are boxed as pointers — storing a bare
// slice in an interface would heap-allocate on every Put — and recycled
// through headerPool so a Get/Put cycle allocates nothing.
var classes [numClasses]sync.Pool

var headerPool = sync.Pool{New: func() any { return new([]float64) }}

// classIndex returns the size-class index for a request of n float64s,
// or -1 when n exceeds the largest class.
func classIndex(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	b := bits.Len(uint(n - 1)) // ceil(log2(n))
	if b > maxClassBits {
		return -1
	}
	return b - minClassBits
}

// Get returns a float64 slice of length n. Contents are unspecified —
// a caller that needs zeroed storage clears it. The slice's capacity is
// its size class, so callers must not append to it.
func Get(n int) []float64 {
	if n < 0 {
		panic("pool: Get with negative length")
	}
	ci := classIndex(n)
	if ci < 0 {
		return make([]float64, n)
	}
	if v := classes[ci].Get(); v != nil {
		h := v.(*[]float64)
		s := (*h)[:n]
		*h = nil
		headerPool.Put(h)
		return s
	}
	return make([]float64, n, 1<<(minClassBits+ci))
}

// Put returns a slice to its size class for reuse. Slices whose capacity
// is not a pooled class size (including oversize allocations) are
// discarded. The caller must not retain any reference to s.
func Put(s []float64) {
	c := cap(s)
	if c == 0 {
		return
	}
	ci := classIndex(c)
	if ci < 0 || c != 1<<(minClassBits+ci) {
		return
	}
	h := headerPool.Get().(*[]float64)
	*h = s[:c]
	classes[ci].Put(h)
}
