package pool

import "testing"

// TestLocalReuse pins the shard contract: a Put slice comes back from
// the next same-class Get without touching the shared pool, counted as
// a hit.
func TestLocalReuse(t *testing.T) {
	l := NewLocal()
	s := l.Get(300) // class 512
	if len(s) != 300 {
		t.Fatalf("Get(300) returned len %d", len(s))
	}
	if l.Hits != 0 || l.Misses != 1 {
		t.Fatalf("fresh shard: hits=%d misses=%d, want 0/1", l.Hits, l.Misses)
	}
	s[0] = 42
	l.Put(s)
	s2 := l.Get(400) // same class
	if cap(s2) != 512 {
		t.Fatalf("recycled slice has cap %d, want 512", cap(s2))
	}
	if l.Hits != 1 {
		t.Fatalf("after recycle: hits=%d, want 1", l.Hits)
	}
	if &s2[0] != &s[0] {
		t.Fatal("Get after Put did not return the local slice")
	}
}

// TestLocalNilReceiver pins that a nil *Local is the shared-pool path on
// every method.
func TestLocalNilReceiver(t *testing.T) {
	var l *Local
	s := l.Get(100)
	if len(s) != 100 {
		t.Fatalf("nil.Get(100) returned len %d", len(s))
	}
	l.Put(s)
	l.Drain()
}

// TestLocalOverflow pins the depth bound: the class list holds localDepth
// slices and further Puts overflow to the shared pool rather than grow.
func TestLocalOverflow(t *testing.T) {
	l := NewLocal()
	slices := make([][]float64, localDepth+2)
	for i := range slices {
		slices[i] = make([]float64, 256)
	}
	for _, s := range slices {
		l.Put(s)
	}
	ci := classIndex(256)
	if got := len(l.free[ci]); got != localDepth {
		t.Fatalf("free list holds %d slices, want %d", got, localDepth)
	}
	// All localDepth retained slices serve Gets as hits.
	for i := 0; i < localDepth; i++ {
		l.Get(256)
	}
	if l.Hits != localDepth {
		t.Fatalf("hits=%d, want %d", l.Hits, localDepth)
	}
}

// TestLocalOddSizes pins the class discipline: out-of-class and oversize
// requests bypass the shard, and Put ignores slices whose cap is not an
// exact class size.
func TestLocalOddSizes(t *testing.T) {
	l := NewLocal()
	huge := l.Get(1 << 25) // above maxClassBits: plain make
	if len(huge) != 1<<25 {
		t.Fatalf("oversize Get returned len %d", len(huge))
	}
	l.Put(huge)
	l.Put(make([]float64, 300)) // cap 300 is not a class size
	l.Put(nil)
	for ci := range l.free {
		if len(l.free[ci]) != 0 {
			t.Fatalf("class %d retained an off-class slice", ci)
		}
	}
	if l.Hits != 0 {
		t.Fatalf("hits=%d after off-class traffic, want 0", l.Hits)
	}
}

// TestLocalDrain pins that Drain empties every class list (a retiring
// worker pins nothing) and the shard remains usable afterwards.
func TestLocalDrain(t *testing.T) {
	l := NewLocal()
	for _, n := range []int{256, 1024, 4096} {
		l.Put(make([]float64, n))
	}
	l.Drain()
	for ci := range l.free {
		if len(l.free[ci]) != 0 {
			t.Fatalf("class %d not drained", ci)
		}
	}
	s := l.Get(256)
	l.Put(s)
	if got := l.Get(256); &got[0] != &s[0] {
		t.Fatal("shard unusable after Drain")
	}
}
