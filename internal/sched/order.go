package sched

import "parsec/internal/ptg"

// Before reports whether a should run before b under the core's one
// total order: descending priority, then ascending creation sequence.
// Every ready queue, steal pick, and migratable-task choice in the repo
// resolves ties through this function, so the simulator and the real
// runtime cannot drift apart on tie-breaks; TestBeforeTotalOrder pins
// the order.
func Before(a, b *ptg.Instance) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.Seq < b.Seq
}

// Heap is a binary priority heap of instances ordered by Before: the
// root is the instance that should run next. Each entry carries its
// instance's (priority, seq) key, read once at push, and the sifts are
// inline rather than through container/heap: a deep shared queue sits
// under its shard lock for every pop, and comparing through the
// instances themselves costs a cache miss per level (a 16k-deep heap of
// instances spans megabytes) on top of the generic protocol's four
// interface calls per comparison. Before is a strict total order, so
// any correct heap pops the same sequence; the conformance suite pins
// it.
type Heap []heapEntry

type heapEntry struct {
	prio int64
	seq  int
	task *ptg.Instance
}

// before is Before on the entries' keys.
func (a heapEntry) before(b heapEntry) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

// At returns the instance at heap index i; index 0 is the Before-best.
func (h Heap) At(i int) *ptg.Instance { return h[i].task }

// PushTask adds an instance, restoring heap order.
func (h *Heap) PushTask(in *ptg.Instance) {
	s := append(*h, heapEntry{in.Priority, in.Seq, in})
	*h = s
	// Sift the new entry toward the root.
	i := len(s) - 1
	x := s[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = x
}

// PopTask removes and returns the Before-best instance. The heap must be
// nonempty.
func (h *Heap) PopTask() *ptg.Instance { return h.RemoveAt(0) }

// RemoveAt removes and returns the instance at heap index i, restoring
// heap order.
func (h *Heap) RemoveAt(i int) *ptg.Instance {
	s := *h
	n := len(s) - 1
	removed, x := s[i].task, s[n]
	s[n] = heapEntry{} // drop the reference for the garbage collector
	s = s[:n]
	*h = s
	if i == n {
		return removed
	}
	// The last entry x refills the hole: sift it toward the leaves, or,
	// if it did not move, toward the root (i need not be the root).
	sunk := false
	for child := 2*i + 1; child < n; child = 2*i + 1 {
		if r := child + 1; r < n && s[r].before(s[child]) {
			child = r
		}
		if !s[child].before(x) {
			break
		}
		s[i] = s[child]
		i, sunk = child, true
	}
	for !sunk && i > 0 {
		parent := (i - 1) / 2
		if !x.before(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = x
	return removed
}
