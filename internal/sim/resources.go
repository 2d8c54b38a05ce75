package sim

import "fmt"

// FIFO is a first-in first-out queue popped by head index: a pop moves
// nothing and the slice rewinds when it empties. A push that would grow
// the backing array first slides the queued entries down over the popped
// ones, so a queue that never empties stays as large as its longest
// backlog. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued entries.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Front returns the oldest entry; the queue must not be empty.
func (q *FIFO[T]) Front() T { return q.buf[q.head] }

// Pop removes and returns the oldest entry; the queue must not be empty.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// WaitQ is a FIFO queue of blocked processes. It is the building block for
// all higher-level synchronization: a process parks itself with Wait and is
// released, in order, by WakeOne or WakeAll.
type WaitQ struct {
	eng   *Engine
	procs FIFO[*Proc]
}

// NewWaitQ returns an empty wait queue bound to the engine.
func NewWaitQ(e *Engine) *WaitQ { return &WaitQ{eng: e} }

// Len returns the number of parked processes.
func (q *WaitQ) Len() int { return q.procs.Len() }

// Wait parks the calling process at the tail of the queue.
func (q *WaitQ) Wait(p *Proc) {
	q.procs.Push(p)
	p.block()
}

// WakeOne releases the process at the head of the queue, if any. The woken
// process resumes at the current virtual time, after events already
// scheduled for this instant. It reports whether a process was woken.
func (q *WaitQ) WakeOne() bool {
	if q.procs.Len() == 0 {
		return false
	}
	q.eng.wakeAt(q.procs.Pop(), q.eng.now)
	return true
}

// WakeAll releases every parked process, in FIFO order.
func (q *WaitQ) WakeAll() {
	for q.procs.Len() > 0 {
		q.eng.wakeAt(q.procs.Pop(), q.eng.now)
	}
}

// Resource is a counting semaphore with FIFO admission. Units are granted
// strictly in request order: a large request at the head blocks smaller
// requests behind it (no barging), which matches the hardware resources we
// model (cores, credit-based NICs).
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  FIFO[resWaiter]
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource returns a resource with the given capacity (> 0).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: NewResource capacity %d", capacity))
	}
	return &Resource{eng: e, capacity: capacity}
}

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting for units.
func (r *Resource) QueueLen() int { return r.waiters.Len() }

// Acquire obtains n units, blocking the process until they are available.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: Acquire(%d) on resource of capacity %d", n, r.capacity))
	}
	if r.waiters.Len() == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	r.waiters.Push(resWaiter{p, n})
	p.block()
}

// Release returns n units and admits as many queued waiters as now fit,
// in FIFO order.
func (r *Resource) Release(n int) {
	if n <= 0 || r.inUse-n < 0 {
		panic(fmt.Sprintf("sim: Release(%d) with %d in use", n, r.inUse))
	}
	r.inUse -= n
	r.admit()
}

func (r *Resource) admit() {
	for r.waiters.Len() > 0 {
		w := r.waiters.Front()
		if r.inUse+w.n > r.capacity {
			return
		}
		r.inUse += w.n
		r.waiters.Pop()
		r.eng.wakeAt(w.p, r.eng.now)
	}
}

// Mutex is a FIFO mutual-exclusion lock with an optional fixed cost per
// lock and per unlock operation, modeling the system-wide cost of
// pthread-style mutexes that §V of the paper identifies as a factor in the
// v3-vs-v5 comparison.
type Mutex struct {
	res        *Resource
	LockCost   Time
	UnlockCost Time
}

// NewMutex returns an unlocked mutex with the given per-operation costs.
func NewMutex(e *Engine, lockCost, unlockCost Time) *Mutex {
	return &Mutex{res: NewResource(e, 1), LockCost: lockCost, UnlockCost: unlockCost}
}

// Lock acquires the mutex, paying LockCost of virtual time after admission.
func (m *Mutex) Lock(p *Proc) {
	m.res.Acquire(p, 1)
	if m.LockCost > 0 {
		p.Hold(m.LockCost)
	}
}

// Unlock releases the mutex, paying UnlockCost of virtual time first.
func (m *Mutex) Unlock(p *Proc) {
	if m.UnlockCost > 0 {
		p.Hold(m.UnlockCost)
	}
	m.res.Release(1)
}

// Barrier blocks processes until a fixed number have arrived, then releases
// them all. It is reusable: after releasing a generation it resets. This
// models the explicit synchronization between the seven work levels of the
// original TCE-generated code (§III-A).
type Barrier struct {
	eng     *Engine
	parties int
	arrived int
	q       *WaitQ
}

// NewBarrier returns a barrier for the given number of parties (> 0).
func NewBarrier(e *Engine, parties int) *Barrier {
	if parties <= 0 {
		panic("sim: NewBarrier parties <= 0")
	}
	return &Barrier{eng: e, parties: parties, q: NewWaitQ(e)}
}

// Arrive blocks until all parties have arrived. The last arriving process
// does not block and releases the others.
func (b *Barrier) Arrive(p *Proc) {
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.q.WakeAll()
		return
	}
	b.q.Wait(p)
}

// Counter is a monotonically increasing shared counter with a fixed
// round-trip cost per fetch-and-increment, serialized through a FIFO
// server. It models the Global Arrays NXTVAL work-stealing counter
// (§III-A, §IV-D): every acquisition is a remote atomic that serializes
// all ranks.
type Counter struct {
	eng   *Engine
	value int64
	rtt   Time
	srv   *Resource
}

// NewCounter returns a counter starting at zero whose increments cost rtt
// each and are served one at a time.
func NewCounter(e *Engine, rtt Time) *Counter {
	return &Counter{eng: e, rtt: rtt, srv: NewResource(e, 1)}
}

// Next performs a fetch-and-increment, blocking the process for queueing
// plus the round-trip time, and returns the pre-increment value.
func (c *Counter) Next(p *Proc) int64 {
	c.srv.Acquire(p, 1)
	if c.rtt > 0 {
		p.Hold(c.rtt)
	}
	v := c.value
	c.value++
	c.srv.Release(1)
	return v
}

// Value returns the current counter value without cost (diagnostics).
func (c *Counter) Value() int64 { return c.value }
