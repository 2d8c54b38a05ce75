package team

import (
	"sync"
	"sync/atomic"
	"testing"

	"parsec/internal/tensor/pool"
)

// countParts runs a Span and returns how many times each part index was
// executed, failing the test on out-of-range or nil-scratch-mismatch.
func countParts(t *testing.T, p Parallelism, parts int) []int32 {
	t.Helper()
	counts := make([]int32, parts)
	p.Span(parts, func(i int, _ *pool.Local) {
		if i < 0 || i >= parts {
			t.Errorf("part index %d out of range [0,%d)", i, parts)
			return
		}
		atomic.AddInt32(&counts[i], 1)
	})
	return counts
}

func requireExactlyOnce(t *testing.T, counts []int32) {
	t.Helper()
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("part %d ran %d times, want 1", i, c)
		}
	}
}

// TestPoolRunsEveryPartOnce pins the Pool implementation across team
// sizes and part counts, including parts < team, parts = team, and
// parts >> team.
func TestPoolRunsEveryPartOnce(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		p := NewPool(n)
		if w := p.Workers(); w != n {
			t.Fatalf("NewPool(%d).Workers() = %d", n, w)
		}
		for _, parts := range []int{0, 1, 2, n, 3*n + 1, 100} {
			requireExactlyOnce(t, countParts(t, p, parts))
		}
		p.Close()
	}
}

// TestPoolClampsSize pins that NewPool(n < 1) behaves as a team of one.
func TestPoolClampsSize(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if w := p.Workers(); w != 1 {
		t.Fatalf("NewPool(0).Workers() = %d, want 1", w)
	}
	requireExactlyOnce(t, countParts(t, p, 5))
}

// TestPoolDistinctScratch pins the scratch contract: concurrently
// executing parts never share a shard (each worker owns its Local
// exclusively while running a part).
func TestPoolDistinctScratch(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var mu sync.Mutex
	inUse := map[*pool.Local]int{}
	var conflicts atomic.Int32
	var barrier sync.WaitGroup
	barrier.Add(4)
	p.Span(4, func(i int, loc *pool.Local) {
		mu.Lock()
		inUse[loc]++
		if inUse[loc] > 1 {
			conflicts.Add(1)
		}
		mu.Unlock()
		// Hold every part live at once so any shard sharing would overlap.
		// Four executors (caller + 3 helpers) each claim one part, so the
		// barrier is reachable.
		barrier.Done()
		barrier.Wait()
		mu.Lock()
		inUse[loc]--
		mu.Unlock()
	})
	if conflicts.Load() != 0 {
		t.Fatalf("%d parts observed a shared scratch shard", conflicts.Load())
	}
}

// TestPoolSequentialSpans pins that a Pool is reusable: many Spans in a
// row, including back-to-back spans reusing the same helper channels.
func TestPoolSequentialSpans(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	for round := 0; round < 50; round++ {
		requireExactlyOnce(t, countParts(t, p, 9))
	}
}
