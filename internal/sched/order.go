package sched

// Task is the minimal view the scheduling core needs of a schedulable
// unit. ptg.Instance implements it for the PTG executors; dtd's
// in-memory DAG nodes implement it for the Dynamic Task Discovery
// engine.
type Task interface {
	// SchedPriority is the task's scheduling priority; higher runs
	// first.
	SchedPriority() int64
	// SchedSeq is the task's deterministic creation ordinal (the
	// instance sequence number for PTG tasks, the insertion index for
	// DTD tasks); lower breaks priority ties.
	SchedSeq() int
}

// Before reports whether a should run before b under the core's one
// total order: descending priority, then ascending creation sequence.
// Every ready queue, steal pick, and migratable-task choice in the repo
// resolves ties through this function, so the simulator and the real
// runtime cannot drift apart on tie-breaks; TestBeforeTotalOrder pins
// the order.
func Before[T Task](a, b T) bool {
	if pa, pb := a.SchedPriority(), b.SchedPriority(); pa != pb {
		return pa > pb
	}
	return a.SchedSeq() < b.SchedSeq()
}

// Heap is a binary priority heap ordered by Before: the root is the task
// that should run next. Each entry carries its task's (priority, seq)
// key, read once at push, and the sifts are inline rather than through
// container/heap: a deep shared queue sits under its shard lock for
// every pop, and comparing through the tasks themselves costs a cache
// miss per level (a 16k-deep heap of instances spans megabytes) on top
// of the generic protocol's four interface calls per comparison. Before
// is a strict total order, so any correct heap pops the same sequence;
// the conformance suite pins it.
type Heap[T Task] []heapEntry[T]

type heapEntry[T Task] struct {
	prio int64
	seq  int
	task T
}

// before is Before on the entries' keys.
func (a heapEntry[T]) before(b heapEntry[T]) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

// At returns the task at heap index i; index 0 is the Before-best.
func (h Heap[T]) At(i int) T { return h[i].task }

// PushTask adds a task, restoring heap order.
func (h *Heap[T]) PushTask(t T) {
	s := append(*h, heapEntry[T]{t.SchedPriority(), t.SchedSeq(), t})
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

// PopTask removes and returns the Before-best task. The heap must be
// nonempty.
func (h *Heap[T]) PopTask() T { return h.RemoveAt(0) }

// RemoveAt removes and returns the task at heap index i, restoring heap
// order (for pickers that choose a victim by scanning, like the
// migratable-task steal).
func (h *Heap[T]) RemoveAt(i int) T {
	s := *h
	n := len(s) - 1
	removed, x := s[i].task, s[n]
	s[n] = heapEntry[T]{} // drop the reference for the garbage collector
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
