//go:build go1.23

// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock by executing events from a priority
// queue ordered by (time, sequence number). Two kinds of activity exist:
//
//   - callbacks: plain functions scheduled with Engine.Schedule, executed
//     inline on the engine goroutine; they must not block.
//   - processes: sequential activities (Proc) started with Engine.Go that
//     may hold virtual time (Proc.Hold), wait on queues, and use resources.
//     Each is a coroutine (iter.Pull) the engine resumes and that hands
//     control back when it blocks, so exactly one process runs at any
//     instant and simulations are bit-reproducible for a fixed seed and
//     program.
//
// An event belongs to whoever waits on it: a process owns its one wake
// event, a PS its completion event, an EventHandle its callback's. The
// steady state therefore allocates nothing per wait.
//
// The engine is the substrate for the simulated cluster on which the
// reproduced CCSD experiments execute (see internal/cluster and
// internal/simexec).
package sim

import (
	"fmt"
	"iter"
	"math"
	"sort"
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

// event is a scheduled occurrence. Exactly one of fn and proc is set.
// Events are embedded in their owners and rescheduled in place.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	proc  *Proc
	index int // heap index while scheduled, -1 otherwise
}

// eventHeap is a binary min-heap on (at, seq) that keeps each event's
// index current, so an owner can take its event out early.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
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

func (h *eventHeap) push(ev *event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.up(ev.index)
}

func (h *eventHeap) pop() *event { return h.remove(0) }

// remove takes the event at heap index i out of the heap and returns it.
func (h *eventHeap) remove(i int) *event {
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
	ev.index = -1
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

	// live holds every process that has not finished: the running one,
	// and those not yet started, sleeping, or blocked on a queue.
	live []*Proc
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// schedule queues an owned, unscheduled event at the given time, after
// everything already queued for that instant.
func (e *Engine) schedule(ev *event, at Time) {
	e.seq++
	ev.at, ev.seq = at, e.seq
	e.heap.push(ev)
}

// unschedule takes an owned event out of the queue if it is in it.
func (e *Engine) unschedule(ev *event) {
	if ev.index >= 0 {
		e.heap.remove(ev.index)
	}
}

// Schedule runs fn after the given virtual delay. fn executes inline on the
// engine goroutine and must not block. A negative delay is treated as zero.
// The returned handle may be used to cancel the event before it fires.
func (e *Engine) Schedule(delay Time, fn func()) *EventHandle {
	if delay < 0 {
		delay = 0
	}
	h := &EventHandle{eng: e}
	h.ev.fn = fn
	e.schedule(&h.ev, e.now+delay)
	return h
}

// EventHandle allows cancelling a scheduled callback.
type EventHandle struct {
	ev        event
	eng       *Engine
	cancelled bool
}

// Cancel prevents the event from firing and takes it out of the queue.
// Cancelling an already-fired or already-cancelled event is a no-op.
func (h *EventHandle) Cancel() {
	if h == nil || h.eng == nil {
		return
	}
	h.cancelled = true
	h.eng.unschedule(&h.ev)
}

// Cancelled reports whether the handle was cancelled before firing.
func (h *EventHandle) Cancelled() bool { return h != nil && h.cancelled }

// Stop terminates Run after the current event completes. Pending events are
// discarded; blocked processes are abandoned (each is resumed once with a
// panic its body wrapper recovers, so it unwinds and ends).
func (e *Engine) Stop() { e.stopped = true }

// Proc is a simulated sequential process. All Proc methods must be called
// from the process's own body function.
type Proc struct {
	// wake is the process's one event: its start, a Hold's expiry, or a
	// queue's wake-up. It is scheduled exactly while wake.index >= 0.
	wake   event
	eng    *Engine
	name   string
	next   func() (struct{}, bool) // resume the coroutine until it blocks or ends
	yield  func(struct{}) bool     // inside the coroutine: hand control back
	slot   int                     // index in eng.live
	killed bool
}

// Name returns the name given to Engine.Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

type procKilled struct{}

// Go starts a new simulated process executing body. The process begins at
// the current virtual time, after all events already scheduled for this
// instant.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.wake.proc = p
	// No stop function is needed: killBlocked ends an abandoned process
	// by resuming it to its end, started or not.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		if p.killed {
			return // abandoned before it ever ran
		}
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(procKilled); !ok {
					panic(r)
				}
			}
		}()
		body(p)
	})
	p.slot = len(e.live)
	e.live = append(e.live, p)
	e.schedule(&p.wake, e.now)
	return p
}

// block suspends the process until the engine resumes it.
func (p *Proc) block() {
	p.yield(struct{}{})
	if p.killed {
		panic(procKilled{})
	}
}

// Hold advances the process's local time by d virtual nanoseconds.
func (p *Proc) Hold(d Time) {
	if d < 0 {
		d = 0
	}
	p.eng.schedule(&p.wake, p.eng.now+d)
	p.block()
}

// wakeAt schedules the process to resume at the given absolute time.
// The process must currently be blocked on a queue (not sleeping).
func (e *Engine) wakeAt(p *Proc, at Time) {
	if p.wake.index >= 0 {
		return // already scheduled
	}
	e.schedule(&p.wake, at)
}

// resumeProc runs p until it blocks or finishes. A panic other than the
// kill signal comes out of the body and up through here to Run's caller.
func (e *Engine) resumeProc(p *Proc) {
	if _, ok := p.next(); ok {
		return
	}
	last := e.live[len(e.live)-1]
	last.slot = p.slot
	e.live[p.slot] = last
	e.live[len(e.live)-1] = nil
	e.live = e.live[:len(e.live)-1]
}

// Run executes events until the queue is empty, Stop is called, or the
// clock would pass horizon (horizon <= 0 means no limit). It returns the
// final virtual time and an error if processes remain blocked with no
// pending events (a simulation deadlock). However Run ends, no process
// outlives it: those still suspended are abandoned.
func (e *Engine) Run(horizon Time) (Time, error) {
	if e.running {
		return e.now, fmt.Errorf("sim: Run called reentrantly")
	}
	e.running = true
	defer func() {
		e.killBlocked()
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
		if ev.proc != nil {
			e.resumeProc(ev.proc)
		} else {
			ev.fn()
		}
	}
	if n := len(e.live); n > 0 && !e.stopped {
		names := make([]string, 0, n)
		for _, p := range e.live {
			names = append(names, p.name)
		}
		sort.Strings(names)
		return e.now, fmt.Errorf("sim: deadlock, %d process(es) blocked forever: %v", n, names)
	}
	return e.now, nil
}

// killBlocked ends every suspended process — blocked, sleeping or never
// started — so no coroutine outlives Run: each is resumed once with
// killed set, and block panics procKilled up its stack. Then every
// pending event is dropped.
func (e *Engine) killBlocked() {
	for len(e.live) > 0 {
		p := e.live[len(e.live)-1]
		p.killed = true
		e.resumeProc(p)
	}
	for i, ev := range e.heap {
		ev.index = -1
		e.heap[i] = nil
	}
	e.heap = e.heap[:0]
}

// LiveProcs returns the number of processes that have started and not yet
// finished. Intended for tests and diagnostics.
func (e *Engine) LiveProcs() int { return len(e.live) }
