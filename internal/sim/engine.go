// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock by executing events from a priority
// queue ordered by (time, sequence number). Every event runs a callback
// inline on the engine goroutine, and two kinds of activity are built
// on that:
//
//   - callbacks: plain functions scheduled with Engine.Schedule; they
//     must not block.
//   - callback actors: state machines, each driven by one owned Event.
//     An actor waits by handing its event to a primitive — Engine.After
//     for virtual time, PS.Start, WaitQ.Park, Resource.Request,
//     Mutex.Acquire, Barrier.Arrive, Counter.Request — and returning;
//     the primitive schedules the event when the wait ends, and the
//     event's callback carries the actor on. A primitive that needs no
//     wait says so, and the actor continues inline.
//
// Exactly one activity runs at any instant, and a primitive ends every
// wait the same way, by scheduling its waiter's event, so simulations
// are bit-reproducible for a fixed seed and program.
//
// An event belongs to whoever waits on it: an actor owns its one event,
// a PS its completion event, an EventHandle its callback's. The steady
// state therefore allocates nothing per wait.
//
// The engine is the substrate for the simulated cluster on which the
// reproduced CCSD experiments execute (see internal/cluster,
// internal/simexec and internal/cgp).
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Common durations, expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts a floating-point number of seconds to a virtual
// duration, rounding to the nearest nanosecond. Negative and non-finite
// inputs are clamped to zero.
func Duration(seconds float64) Time {
	if seconds <= 0 || math.IsNaN(seconds) || math.IsInf(seconds, 1) {
		return 0
	}
	return Time(math.Round(seconds * float64(Second)))
}

// String renders the virtual time with a unit fitting its magnitude.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Event is an owned, reusable event: a callback and, while it is
// scheduled, its (time, sequence) key. Its owner reschedules it in place
// for every wait, so waiting allocates nothing. The zero value is
// unscheduled and has no callback; Bind gives it one.
type Event struct {
	at  Time
	seq uint64
	fn  func()
	pos int // 1 + heap index while scheduled, 0 otherwise
}

// Bind sets the callback the event runs when it fires. An actor binds
// its event once, before its first wait.
func (ev *Event) Bind(fn func()) { ev.fn = fn }

// eventHeap is a binary min-heap on (at, seq) that keeps each event's
// position current, so an owner can take its event out or re-key it.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i + 1
	h[j].pos = j + 1
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			return
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts h[i] toward the leaves within h[:n] and reports whether it
// moved.
func (h eventHeap) down(i, n int) bool {
	i0 := i
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	ev.pos = len(*h)
	h.up(ev.pos - 1)
}

func (h *eventHeap) pop() *Event { return h.remove(0) }

// fix restores the heap order after h[i]'s key changed.
func (h eventHeap) fix(i int) {
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

// remove takes the event at heap index i out of the heap and returns it.
func (h *eventHeap) remove(i int) *Event {
	old := *h
	n := len(old) - 1
	if i != n {
		old.swap(i, n)
		if !old.down(i, n) {
			old.up(i)
		}
	}
	ev := old[n]
	old[n] = nil
	ev.pos = 0
	*h = old[:n]
	return ev
}

// Engine is a deterministic discrete-event simulator.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	heap    eventHeap
	running bool
	stopped bool
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// schedule queues an owned, unscheduled event at the given time, after
// everything already queued for that instant.
func (e *Engine) schedule(ev *Event, at Time) {
	e.seq++
	ev.at, ev.seq = at, e.seq
	e.heap.push(ev)
}

// reschedule moves an owned event to the given time with the fresh
// sequence number a removal and a new schedule would give it, but sifts
// it once where it stands. (at, seq) is a strict total order, so the
// events come out in the same order either way.
func (e *Engine) reschedule(ev *Event, at Time) {
	if ev.pos == 0 {
		e.schedule(ev, at)
		return
	}
	e.seq++
	ev.at, ev.seq = at, e.seq
	e.heap.fix(ev.pos - 1)
}

// unschedule takes an owned event out of the queue if it is in it.
func (e *Engine) unschedule(ev *Event) {
	if ev.pos > 0 {
		e.heap.remove(ev.pos - 1)
	}
}

// wake schedules a waiter's event at the current time, after everything
// already queued for this instant, unless it is already scheduled.
func (e *Engine) wake(ev *Event) {
	if ev.pos == 0 {
		e.schedule(ev, e.now)
	}
}

// After schedules an owned event to fire d virtual nanoseconds from now,
// after everything already queued for that instant: a callback actor's
// Hold. A negative d is treated as zero. The event must not be
// scheduled.
func (e *Engine) After(ev *Event, d Time) {
	if ev.pos != 0 {
		panic("sim: After on a scheduled event")
	}
	if d < 0 {
		d = 0
	}
	e.schedule(ev, e.now+d)
}

// Schedule runs fn after the given virtual delay. fn executes inline on the
// engine goroutine and must not block. A negative delay is treated as zero.
// The returned handle may be used to cancel the event before it fires.
func (e *Engine) Schedule(delay Time, fn func()) *EventHandle {
	h := &EventHandle{eng: e}
	h.ev.fn = fn
	e.After(&h.ev, delay)
	return h
}

// EventHandle allows cancelling a scheduled callback.
type EventHandle struct {
	ev  Event
	eng *Engine
}

// Cancel prevents the event from firing and takes it out of the queue.
// Cancelling an already-fired or already-cancelled event is a no-op.
func (h *EventHandle) Cancel() {
	if h == nil || h.eng == nil {
		return
	}
	h.eng.unschedule(&h.ev)
}

// Stop terminates Run after the current event completes. Pending events
// are discarded, and whatever was waiting on them is abandoned.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty, Stop is called, or the
// clock would pass horizon (horizon <= 0 means no limit), and returns the
// final virtual time. However Run ends, the events still pending are
// dropped. The engine does not track actors: one left waiting when the
// queue runs dry is a deadlock that its owner judges, as simexec's
// CheckQuiescent and cgp.Run do.
func (e *Engine) Run(horizon Time) (Time, error) {
	if e.running {
		return e.now, fmt.Errorf("sim: Run called reentrantly")
	}
	e.running = true
	defer func() {
		e.dropPending()
		e.running = false
	}()
	for len(e.heap) > 0 && !e.stopped {
		ev := e.heap[0]
		if horizon > 0 && ev.at > horizon {
			e.now = horizon
			return e.now, nil
		}
		if ev.at < e.now {
			return e.now, fmt.Errorf("sim: event scheduled in the past (%v < %v)", ev.at, e.now)
		}
		e.heap.pop()
		e.now = ev.at
		ev.fn()
	}
	return e.now, nil
}

// dropPending takes every pending event out of the queue.
func (e *Engine) dropPending() {
	for i, ev := range e.heap {
		ev.pos = 0
		e.heap[i] = nil
	}
	e.heap = e.heap[:0]
}
