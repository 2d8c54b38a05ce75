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

// WaitQ is a FIFO queue of waiters. It is the building block for all
// higher-level synchronization: an actor parks its event with Park, and
// WakeOne or WakeAll release the parked events in order.
type WaitQ struct {
	eng *Engine
	evs FIFO[*Event]
}

// NewWaitQ returns an empty wait queue bound to the engine.
func NewWaitQ(e *Engine) *WaitQ { return &WaitQ{eng: e} }

// Len returns the number of parked waiters.
func (q *WaitQ) Len() int { return q.evs.Len() }

// Park queues ev at the tail; it fires when a wake reaches it.
func (q *WaitQ) Park(ev *Event) { q.evs.Push(ev) }

// WakeOne releases the waiter at the head of the queue, if any. Its event
// fires at the current virtual time, after events already scheduled for
// this instant. It reports whether a waiter was woken.
func (q *WaitQ) WakeOne() bool {
	if q.evs.Len() == 0 {
		return false
	}
	q.eng.wake(q.evs.Pop())
	return true
}

// WakeAll releases every parked waiter, in FIFO order.
func (q *WaitQ) WakeAll() {
	for q.evs.Len() > 0 {
		q.eng.wake(q.evs.Pop())
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
	ev *Event
	n  int
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

// Request asks for n units on behalf of ev's owner and reports whether
// the caller must wait: granted at once it returns false, queued it
// returns true and ev fires on admission.
func (r *Resource) Request(ev *Event, n int) bool {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: Request(%d) on resource of capacity %d", n, r.capacity))
	}
	if r.waiters.Len() == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return false
	}
	r.waiters.Push(resWaiter{ev, n})
	return true
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
		r.eng.wake(w.ev)
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

// Acquire asks for the mutex on behalf of ev's owner and reports whether
// the caller must wait for ev, as Resource.Request does. It charges no
// cost: the caller holds LockCost itself once admitted.
func (m *Mutex) Acquire(ev *Event) bool { return m.res.Request(ev, 1) }

// Release frees the mutex, admitting the next waiter. It charges no
// cost either: the caller holds UnlockCost itself before releasing.
func (m *Mutex) Release() { m.res.Release(1) }

// Barrier holds its parties until a fixed number have arrived, then
// releases them all. It is reusable: after releasing a generation it
// resets. This models the explicit synchronization between the seven
// work levels of the original TCE-generated code (§III-A).
type Barrier struct {
	parties int
	arrived int
	q       *WaitQ
}

// NewBarrier returns a barrier for the given number of parties (> 0).
func NewBarrier(e *Engine, parties int) *Barrier {
	if parties <= 0 {
		panic("sim: NewBarrier parties <= 0")
	}
	return &Barrier{parties: parties, q: NewWaitQ(e)}
}

// Arrive counts ev's owner in and reports whether it must wait: ev fires
// when the last party arrives. The last party does not wait; it releases
// the others, in arrival order, and carries on.
func (b *Barrier) Arrive(ev *Event) bool {
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.q.WakeAll()
		return false
	}
	b.q.Park(ev)
	return true
}

// Counter is a monotonically increasing shared counter with a fixed
// round-trip cost per fetch-and-increment, serialized through a FIFO
// server. It models the Global Arrays NXTVAL work-stealing counter
// (§III-A, §IV-D): every acquisition is a remote atomic that serializes
// all ranks. A fetch-and-increment takes three steps: Request the
// server, hold RTT once admitted, then Take the value.
type Counter struct {
	RTT   Time // the round trip of one fetch-and-increment, held once admitted
	value int64
	srv   *Resource
}

// NewCounter returns a counter starting at zero whose increments cost rtt
// each and are served one at a time.
func NewCounter(e *Engine, rtt Time) *Counter {
	return &Counter{RTT: rtt, srv: NewResource(e, 1)}
}

// Request asks for the counter's server on behalf of ev's owner and
// reports whether the caller must wait for ev, as Resource.Request does.
func (c *Counter) Request(ev *Event) bool { return c.srv.Request(ev, 1) }

// Take ends an admitted request: it increments the counter, frees the
// server for the next request, and returns the pre-increment value.
func (c *Counter) Take() int64 {
	v := c.value
	c.value++
	c.srv.Release(1)
	return v
}

// Value returns the current counter value without cost (diagnostics).
func (c *Counter) Value() int64 { return c.value }
