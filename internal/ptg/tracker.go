package ptg

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// InstState is the lifecycle state of a task instance.
type InstState int

const (
	StateWaiting InstState = iota // some task-sourced inputs outstanding
	StateReady                    // all inputs satisfied, not yet started
	StateRunning                  // handed to an executor
	StateDone                     // completed
)

// String names the lifecycle state.
func (s InstState) String() string {
	return [...]string{"waiting", "ready", "running", "done"}[s]
}

// NewBuffer is the payload placed on a flow satisfied by an InNew
// alternative: the task starts with a fresh buffer of the given size.
// The real runtime's body allocates it; the simulator charges nothing.
type NewBuffer struct{ Bytes int64 }

// Instance is one task instance with its dataflow bookkeeping.
//
// State is a plain field, not an atomic, by contract: transitions to
// StateReady happen under the tracker mutex and are published to the
// dequeuing executor through its ready-queue lock (the push
// happens-after the state write, the pop happens-before Start's read);
// Start and Complete run on the executing worker only. In a correct
// execution no two goroutines touch State concurrently, so the hot path
// pays no locked instructions for it.
type Instance struct {
	Ref      TaskRef
	Class    *TaskClass
	Node     int
	Priority int64
	Seq      int // creation index; deterministic tie-breaker
	State    InstState

	// In holds the payload per flow index (a sub-slice of the tracker's
	// one payload slab): the delivered payload for a task-sourced flow, a
	// NewBuffer for an InNew flow, and nil otherwise — for inactive flows,
	// for task-sourced flows not yet delivered, and for flows supplied by
	// terminal data. The DataRef of an InData flow is not materialized:
	// bodies and behaviors fetch terminal data themselves (a Global
	// Arrays access), and no executor reads it from here.
	In        []any
	delivered uint32 // bit fi set: task-sourced flow fi has its payload
	fromTask  uint32 // bit fi set: flow fi is supplied by another task
	pending   int32
}

// String renders the instance with its affinity and state.
func (in *Instance) String() string {
	return fmt.Sprintf("%v@n%d[%v]", in.Ref, in.Node, in.State)
}

// Delivery instructs the executor to move the payload produced on one of
// a completed task's flows to a successor's input flow. The executor
// performs the (possibly remote) transport, then calls Tracker.Deliver.
type Delivery struct {
	From     *Instance
	FromFlow int // flow index on the producer
	To       *Instance
	ToFlow   int   // flow index on the consumer
	Bytes    int64 // simulated payload size (0 if FlowBytes is nil)
}

// TerminalWrite reports that a completed task's flow is bound to a
// terminal datum (an OutData dependency); the executor decides what, if
// anything, to do (our CCSD bodies write Global Arrays themselves, so
// executors typically treat this as informational).
type TerminalWrite struct {
	From     *Instance
	FromFlow int
	Data     DataRef
}

// Tracker holds the per-execution state of a graph's instances and
// tracks dataflow readiness. The graph's structure — instances, their
// resolved inputs, the edges that fire — comes from a Skeleton, built
// once per plan (Graph.Bind) or privately by NewTracker; the tracker adds
// only what changes during a run: lifecycle states, delivered payloads
// and pending counts. It is the engine every executor drives:
// Complete(task) returns the deliveries its outputs trigger;
// Deliver(payload) marks an input satisfied and reports newly ready
// tasks. The state-transition methods (Complete, Deliver, ClaimStart,
// CheckQuiescent) synchronize on the tracker's own mutex, so concurrent
// executors can call them directly without holding any scheduler lock;
// Done and Remaining are lock-free.
type Tracker struct {
	G    *Graph
	sk   *Skeleton
	inst []Instance // indexed by Seq
	slab []any      // every instance's In, end to end

	mu        sync.Mutex // guards instance state transitions
	remaining atomic.Int64
}

// NewTracker validates the graph and instantiates it for one execution.
// With a bound skeleton that is two slab allocations and a copy; without
// one it first builds a private skeleton (see NewSkeleton for the
// structural errors that reports) and then takes the same path.
func NewTracker(g *Graph) (*Tracker, error) {
	t := new(Tracker)
	if err := t.Reset(g); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset re-initialises the tracker in place for a new execution of g —
// the graph of its last run or any other — exactly as NewTracker would
// build it, but into the slabs it already holds, growing them only for
// a larger graph. Every instance's per-run state is rewritten from the
// skeleton — all of the instance when the graph or skeleton is not the
// last run's — so nothing of the last run survives: not a state, a
// delivered payload or a pending count, also after a run that failed or
// was canceled. The
// caller must be the tracker's only user, and instances of the last run
// are invalid afterwards. On error the tracker is empty.
func (t *Tracker) Reset(g *Graph) error {
	lastG, last := t.G, t.sk
	t.G, t.sk, t.inst = nil, nil, t.inst[:0]
	t.remaining.Store(0)
	sk := g.skel
	var err error
	if sk == nil {
		sk, err = NewSkeleton(g)
	} else if err = g.Validate(); err == nil {
		err = sk.matches(g)
	}
	if err != nil {
		return err
	}
	t.G, t.sk = g, sk
	// Run again on the graph and skeleton of its last run, the tracker
	// only has the per-run fields to rewrite: the rest is already copied,
	// and each In still covers its own part of the slab.
	again := g == lastG && sk == last && len(t.slab) == sk.nslots
	t.inst = grow(t.inst, len(sk.inst))
	t.slab = grow(t.slab, sk.nslots)
	clear(t.slab)
	for _, nb := range sk.news {
		t.slab[nb.slot] = sk.newVals[nb.val]
	}
	if again {
		for i := range t.inst {
			in := &t.inst[i]
			in.State, in.delivered, in.pending = StateWaiting, 0, int32(bits.OnesCount32(in.fromTask))
			if in.pending == 0 {
				in.State = StateReady
			}
		}
		t.remaining.Store(int64(len(t.inst)))
		return nil
	}
	slab := t.slab
	for ci, tc := range g.order {
		sc := &sk.classes[ci]
		nf := len(tc.Flows)
		for i := sc.base; i < sc.base+sc.n; i++ {
			si, in := &sk.inst[i], &t.inst[i]
			in.Ref = TaskRef{Class: tc.Name, Args: widen(si.args)}
			in.Class = tc
			in.Node = int(si.node)
			in.Priority = si.prio
			in.Seq = int(i)
			in.State = StateWaiting
			in.In, slab = slab[:nf:nf], slab[nf:]
			in.delivered = 0
			in.fromTask = si.fromTask
			in.pending = int32(bits.OnesCount32(si.fromTask))
			if in.pending == 0 {
				in.State = StateReady
			}
		}
	}
	t.remaining.Store(int64(len(t.inst)))
	return nil
}

// grow returns s resized to n, reusing its array when it is large enough.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// Drop clears the payloads the last run left in the tracker — the tiles
// its instances were handed — so that a tracker kept between runs pins
// none of them. The instances stay as they were.
func (t *Tracker) Drop() { clear(t.slab) }

// matchIn returns the first input alternative whose guard holds.
func matchIn(f *Flow, a Args) (InDep, bool) {
	for _, in := range f.Ins {
		if in.Guard == nil || in.Guard(a) {
			return in, true
		}
	}
	return InDep{}, false
}

// NumInstances returns the total number of task instances.
func (t *Tracker) NumInstances() int { return len(t.inst) }

// Remaining returns the number of instances not yet completed.
func (t *Tracker) Remaining() int { return int(t.remaining.Load()) }

// Done reports whether every instance has completed.
func (t *Tracker) Done() bool { return t.remaining.Load() == 0 }

// Instance returns the instance for a reference, or nil if the class is
// unknown or its domain did not emit those args.
func (t *Tracker) Instance(ref TaskRef) *Instance {
	tc := t.G.classes[ref.Class]
	if tc == nil {
		return nil
	}
	i := t.sk.lookup(tc.idx, ref.Args)
	if i < 0 {
		return nil
	}
	return &t.inst[i]
}

// Instances returns all instances in deterministic creation order, in a
// slice allocated per call (executors hold instances by pointer; only
// whole-graph scans such as a takeover need the list).
func (t *Tracker) Instances() []*Instance {
	all := make([]*Instance, len(t.inst))
	for i := range t.inst {
		all[i] = &t.inst[i]
	}
	return all
}

// InitialReady returns the instances ready before any completions, in
// deterministic creation order.
func (t *Tracker) InitialReady() []*Instance {
	ready := make([]*Instance, 0, len(t.sk.ready))
	for i := range t.inst {
		if in := &t.inst[i]; in.State == StateReady {
			ready = append(ready, in)
		}
	}
	return ready
}

// AppendInitialReady appends to run the same instances as InitialReady
// in the order a priority queue pops them — priority descending, then
// creation order — as the skeleton resolved it once for the plan, and
// returns the extended slice. The caller owns it; a ready queue can
// adopt it as an already-sorted run (sched.Queue.Preload), and a caller
// that runs again can pass the same buffer back.
func (t *Tracker) AppendInitialReady(run []*Instance) []*Instance {
	run = slices.Grow(run, len(t.sk.ready))
	for _, i := range t.sk.ready {
		run = append(run, &t.inst[i])
	}
	return run
}

// Start marks a ready instance as running. Executors call it when they
// dequeue a task; it guards against double-scheduling. It takes no lock:
// an instance reaches StateReady exactly once and only the dequeuer that
// popped it may claim it (see the Instance.State contract).
func (t *Tracker) Start(in *Instance) error {
	if in.State != StateReady {
		return fmt.Errorf("ptg: Start(%v) in state %v", in.Ref, in.State)
	}
	in.State = StateRunning
	return nil
}

// ClaimStart is Start under the tracker's lock. The lock-free Start
// contract — only the dequeuer touches a ready instance — holds inside
// one scheduler, but a distributed engine also reads instance state
// from message-handler goroutines (duplicate deliveries, takeover
// scans) concurrently with its workers, so its claims must serialize
// with those locked reads.
func (t *Tracker) ClaimStart(in *Instance) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if in.State != StateReady {
		return fmt.Errorf("ptg: Start(%v) in state %v", in.Ref, in.State)
	}
	in.State = StateRunning
	return nil
}

// Complete marks a running (or, for executors that skip Start, ready)
// instance done and returns the deliveries to perform — one per resolved
// out-edge, in flow order then Outs order, sized by the producer's
// FlowBytes unless the consumer's InBytes overrides it — and the
// terminal writes its flows are bound to. The deliveries are appended to
// dels, a caller-owned buffer as in CompleteDeliver, and the extended
// slice is returned; pass nil for a fresh one. Only the state transition
// takes the lock: edges and classes are read-only.
func (t *Tracker) Complete(in *Instance, dels []Delivery) ([]Delivery, []TerminalWrite, error) {
	t.mu.Lock()
	if in.State != StateRunning && in.State != StateReady {
		t.mu.Unlock()
		return dels, nil, fmt.Errorf("ptg: Complete(%v) in state %v", in.Ref, in.State)
	}
	in.State = StateDone
	t.mu.Unlock()
	t.remaining.Add(-1)

	a := in.Ref.Args
	edges := t.sk.edgesOf(in.Seq)
	dels = slices.Grow(dels, len(edges))
	for _, e := range edges {
		to := &t.inst[e.to]
		var bytes int64
		if in.Class.FlowBytes != nil {
			bytes = in.Class.FlowBytes(a, in.Class.Flows[e.fromFlow].Name)
		}
		if to.Class.InBytes != nil {
			bytes = to.Class.InBytes(to.Ref.Args, to.Class.Flows[e.toFlow].Name)
		}
		dels = append(dels, Delivery{From: in, FromFlow: int(e.fromFlow), To: to, ToFlow: int(e.toFlow), Bytes: bytes})
	}
	var writes []TerminalWrite
	for fi, f := range in.Class.Flows {
		for _, out := range f.Outs {
			if out.Data != nil && (out.Guard == nil || out.Guard(a)) {
				writes = append(writes, TerminalWrite{From: in, FromFlow: fi, Data: out.Data(a)})
			}
		}
	}
	return dels, writes, nil
}

// Deliver satisfies one task-sourced input of an instance with a payload.
// It returns true if the instance became ready.
func (t *Tracker) Deliver(to *Instance, flowIdx int, payload any) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deliverLocked(to, flowIdx, payload)
}

func (t *Tracker) deliverLocked(to *Instance, flowIdx int, payload any) (bool, error) {
	if to.State == StateDone || to.State == StateRunning {
		return false, fmt.Errorf("ptg: Deliver to %v in state %v", to.Ref, to.State)
	}
	if flowIdx < 0 || flowIdx >= len(to.In) {
		return false, fmt.Errorf("ptg: Deliver to %v flow %d out of range", to.Ref, flowIdx)
	}
	bit := uint32(1) << flowIdx
	if to.fromTask&bit == 0 {
		return false, fmt.Errorf("ptg: Deliver to %v flow %s which has no task source",
			to.Ref, to.Class.Flows[flowIdx].Name)
	}
	if to.delivered&bit != 0 {
		return false, fmt.Errorf("ptg: duplicate delivery to %v flow %s",
			to.Ref, to.Class.Flows[flowIdx].Name)
	}
	to.delivered |= bit
	to.In[flowIdx] = payload
	to.pending--
	if to.pending == 0 {
		to.State = StateReady
		return true, nil
	}
	return false, nil
}

// CompleteDeliver is Complete followed by a Deliver per edge, fused into
// a single lock acquisition and no intermediate Delivery slice: the hot
// path of the shared-memory runtime, where the critical section is a
// mask test and a decrement per successor. Each edge's payload is taken
// from outs (the task's Ctx.Out, indexed by producer flow). Newly ready
// successors are appended to ready — a caller-owned scratch buffer, so
// steady state allocates nothing — and the extended slice is returned.
// Terminal writes are not reported: shared-memory bodies perform their
// own Global Array updates.
func (t *Tracker) CompleteDeliver(in *Instance, outs []any, ready []*Instance) ([]*Instance, error) {
	if in.State != StateRunning && in.State != StateReady {
		return ready, fmt.Errorf("ptg: Complete(%v) in state %v", in.Ref, in.State)
	}
	edges := t.sk.edgesOf(in.Seq)
	t.mu.Lock()
	defer t.mu.Unlock()
	in.State = StateDone
	t.remaining.Add(-1)
	for _, e := range edges {
		to := &t.inst[e.to]
		became, err := t.deliverLocked(to, int(e.toFlow), outs[e.fromFlow])
		if err != nil {
			return ready, err
		}
		if became {
			ready = append(ready, to)
		}
	}
	return ready, nil
}

// DeliveredFlow reports whether an instance's task-sourced input on the
// given flow has already been satisfied (false also for flows with no
// task source). Distributed executors use it to drop duplicate
// activations — an at-least-once wire delivers the same payload twice
// after a retransmission or a post-takeover replay — before they reach
// Deliver, which treats duplicates as a protocol error.
func (t *Tracker) DeliveredFlow(in *Instance, flowIdx int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if flowIdx < 0 || flowIdx >= len(in.In) {
		return false
	}
	bit := uint32(1) << flowIdx
	return in.fromTask&bit == 0 || in.delivered&bit != 0
}

// StateOf returns an instance's lifecycle state under the tracker's
// lock. Concurrent executors that must branch on state outside the
// dequeue path (a distributed engine scanning for re-executable work
// during takeover, say) read it here rather than racing the plain
// State field against a locked transition.
func (t *Tracker) StateOf(in *Instance) InstState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return in.State
}

// CheckQuiescent verifies the terminal invariant: every instance done.
// It returns a descriptive error naming a stuck instance otherwise.
func (t *Tracker) CheckQuiescent() error {
	if t.remaining.Load() == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.inst {
		if in := &t.inst[i]; in.State != StateDone {
			return fmt.Errorf("ptg: %d task(s) incomplete; first: %v (pending inputs: %d)",
				t.remaining.Load(), in.Ref, in.pending)
		}
	}
	return fmt.Errorf("ptg: remaining=%d but all instances done (accounting bug)", t.remaining.Load())
}
