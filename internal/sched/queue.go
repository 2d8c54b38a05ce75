package sched

import "parsec/internal/ptg"

// Queue is one ready queue of PTG task instances. Its discipline is
// fixed at construction: a Before-ordered priority heap, or — only for
// the shared-queue LIFO configuration — a plain stack serving the most
// recently enqueued task first. Per-worker queues always use the heap
// regardless of policy, so a steal always takes a victim's best task;
// this matches what both executors have always done and the conformance
// suite pins it.
//
// Queue is not synchronized. The runtime wraps each queue in its shard
// mutex; the discrete-event simulator runs one process at a time and
// needs no lock.
type Queue struct {
	lifo  bool
	heap  Heap[*ptg.Instance]
	stack []*ptg.Instance
}

// NewQueue returns an empty queue with the discipline implied by the
// policy and queue mode (see Queue).
func NewQueue(pol Policy, mode QueueMode) Queue {
	return Queue{lifo: pol == LIFOOrder && mode == SharedQueue}
}

// Len returns the number of queued tasks.
func (q *Queue) Len() int {
	if q.lifo {
		return len(q.stack)
	}
	return len(q.heap)
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
	return len(q.heap)
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
	if len(q.heap) == 0 {
		return nil, 0
	}
	return q.heap.PopTask(), len(q.heap)
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
	if len(q.heap) > 0 {
		return q.heap.At(0)
	}
	return nil
}

// at returns the instance at backing-slice index i (heap order or stack
// order).
func (q *Queue) at(i int) *ptg.Instance {
	if q.lifo {
		return q.stack[i]
	}
	return q.heap.At(i)
}

// FindWhere returns the Before-best queued instance satisfying ok and
// its backing-slice index (for RemoveAt), or (nil, -1). The queue is
// scanned whole — not just its head — because the inter-node steal may
// only move migratable classes and the best migratable task can sit
// below a pinned one.
func (q *Queue) FindWhere(ok func(*ptg.Instance) bool) (best *ptg.Instance, bi int) {
	bi = -1
	for i, n := 0, q.Len(); i < n; i++ {
		if in := q.at(i); ok(in) && (best == nil || Before(in, best)) {
			best, bi = in, i
		}
	}
	return best, bi
}

// RemoveAt removes and returns the instance at backing-slice index i.
func (q *Queue) RemoveAt(i int) *ptg.Instance {
	if q.lifo {
		in := q.stack[i]
		q.stack = append(q.stack[:i], q.stack[i+1:]...)
		return in
	}
	return q.heap.RemoveAt(i)
}
