package pool

import (
	"runtime/debug"
	"testing"
)

func TestClassIndex(t *testing.T) {
	cases := []struct {
		n, want int
	}{
		{1, 0}, {255, 0}, {256, 0}, {257, 1}, {512, 1}, {513, 2},
		{1 << 20, 12}, {1<<24 - 1, 16}, {1 << 24, 16}, {1<<24 + 1, -1},
	}
	for _, c := range cases {
		if got := classIndex(c.n); got != c.want {
			t.Errorf("classIndex(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestGetPut(t *testing.T) {
	s := Get(1000)
	if len(s) != 1000 {
		t.Fatalf("len = %d, want 1000", len(s))
	}
	if cap(s) != 1024 {
		t.Fatalf("cap = %d, want class size 1024", cap(s))
	}
	for i := range s {
		s[i] = float64(i)
	}
	Put(s)

	// Oversize requests fall through to the heap.
	big := Get(1<<24 + 1)
	if len(big) != 1<<24+1 {
		t.Fatalf("oversize len = %d", len(big))
	}
	Put(big) // discarded, must not panic

	// Slices with non-class capacity are discarded, not pooled.
	Put(make([]float64, 300))
	Put(nil)
}

func TestGetPutNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	// sync.Pool contents are dropped by GC; hold it off so the warm pool
	// stays warm for the measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{100, 4096, 100000} {
		Put(Get(n)) // warm the class
		allocs := testing.AllocsPerRun(100, func() {
			s := Get(n)
			s[0] = 1
			Put(s)
		})
		if allocs != 0 {
			t.Errorf("Get(%d)/Put cycle: %v allocs/op, want 0", n, allocs)
		}
	}
}
