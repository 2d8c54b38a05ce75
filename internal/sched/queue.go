package sched

import (
	"cmp"
	"slices"

	"parsec/internal/ptg"
)

// Queue is one ready queue of PTG task instances. Its discipline is
// fixed at construction: Before order, or — only for the shared-queue
// LIFO configuration — a plain stack serving the most recently enqueued
// task first. Per-worker queues always serve in Before order regardless
// of policy, so a steal always takes a victim's best task; this matches
// what both executors have always done and the conformance suite pins
// it.
//
// A Before-ordered queue is a sorted run plus a heap. The run is a
// slice somebody else already sorted (Preload: a plan's initially-ready
// tasks, ordered once per plan by ptg.Skeleton), consumed front to back
// by a cursor; the heap takes every Push. Pop serves whichever head is
// Before the other, so the sequence is exactly the one a single heap
// holding both would pop — Before is a strict total order — while the
// heap only ever holds the tasks that became ready during the run and
// stays a few entries deep.
//
// Queue is not synchronized. The runtime wraps each queue in its shard
// mutex; the discrete-event simulator runs one process at a time and
// needs no lock.
type Queue struct {
	lifo  bool
	heap  Heap
	stack []*ptg.Instance
	// run[cur:] is the part of the preloaded run still queued.
	run []*ptg.Instance
	cur int
}

// NewQueue returns an empty queue with the discipline implied by the
// policy and queue mode (see Queue).
func NewQueue(pol Policy, mode QueueMode) Queue {
	return Queue{lifo: pol == LIFOOrder && mode == SharedQueue}
}

// Reset empties the queue for another run under the discipline pol and
// mode imply, keeping the storage its heap and stack have grown. A
// preloaded run is let go, not kept: its slice is its preloader's.
func (q *Queue) Reset(pol Policy, mode QueueMode) {
	clear(q.heap)
	clear(q.stack)
	*q = Queue{lifo: pol == LIFOOrder && mode == SharedQueue, heap: q.heap[:0], stack: q.stack[:0]}
}

// Len returns the number of queued tasks.
func (q *Queue) Len() int {
	if q.lifo {
		return len(q.stack)
	}
	return len(q.heap) + len(q.run) - q.cur
}

// Preload enqueues a run of ready instances that is already sorted in
// Before order and returns the resulting depth. The queue takes
// ownership of the slice: with no earlier run outstanding it is adopted
// as is — no per-task push, nothing heaped — otherwise its tasks are
// pushed. A stack serves by push order, not by Before, and a run's
// initial tasks have always been pushed in creation order, so the LIFO
// discipline re-sorts the run that way before stacking it.
func (q *Queue) Preload(run []*ptg.Instance) int {
	switch {
	case q.lifo:
		slices.SortFunc(run, func(a, b *ptg.Instance) int { return cmp.Compare(a.Seq, b.Seq) })
		q.stack = append(q.stack, run...)
	case q.cur == len(q.run):
		q.run, q.cur = run, 0
	default:
		for _, in := range run {
			q.heap.PushTask(in)
		}
	}
	return q.Len()
}

// Push enqueues a ready instance and returns the resulting depth (the
// runtime's shards mirror depth transitions into lock-free emptiness
// hints).
func (q *Queue) Push(in *ptg.Instance) int {
	if q.lifo {
		q.stack = append(q.stack, in)
		return len(q.stack)
	}
	q.heap.PushTask(in)
	return q.Len()
}

// runFirst reports whether the next task in Before order is the run's
// head rather than the heap's. The heap side is compared by the keys its
// root entry carries.
func (q *Queue) runFirst() bool {
	if q.cur == len(q.run) {
		return false
	}
	if len(q.heap) == 0 {
		return true
	}
	in := q.run[q.cur]
	return heapEntry{prio: in.Priority, seq: in.Seq}.before(q.heap[0])
}

// Pop dequeues the next instance under the queue's discipline, returning
// it with the remaining depth; (nil, 0) if the queue is empty.
func (q *Queue) Pop() (*ptg.Instance, int) {
	if q.lifo {
		n := len(q.stack)
		if n == 0 {
			return nil, 0
		}
		in := q.stack[n-1]
		q.stack[n-1] = nil
		q.stack = q.stack[:n-1]
		return in, n - 1
	}
	if q.runFirst() {
		in := q.run[q.cur]
		q.cur++
		return in, q.Len()
	}
	if len(q.heap) == 0 {
		return nil, 0
	}
	return q.heap.PopTask(), q.Len()
}

// Peek returns the instance Pop would return without removing it, or
// nil.
func (q *Queue) Peek() *ptg.Instance {
	if q.lifo {
		if n := len(q.stack); n > 0 {
			return q.stack[n-1]
		}
		return nil
	}
	if q.runFirst() {
		return q.run[q.cur]
	}
	if len(q.heap) > 0 {
		return q.heap.At(0)
	}
	return nil
}

// PopsNext reports whether in, pushed now, would be the very next Pop:
// always on a stack, and on a Before-ordered queue when it runs before
// the current head. A worker holding such a task can run it without
// queueing it at all.
func (q *Queue) PopsNext(in *ptg.Instance) bool {
	if q.lifo {
		return true
	}
	head := q.Peek()
	return head == nil || Before(in, head)
}
