package sched

import "parsec/internal/ptg"

// Op identifies one kind of scheduling decision reported to an Observer.
type Op int

const (
	// OpEnqueue is a ready task landing on a queue.
	OpEnqueue Op = iota
	// OpPop is a worker taking the next task from its own queue.
	OpPop
	// OpSteal is a task leaving a queue that is not the taker's own: an
	// intra-node steal from a sibling, or a migratable task picked for
	// inter-node re-dispatch.
	OpSteal
)

// String names the op ("enqueue", "pop", "steal").
func (o Op) String() string {
	return [...]string{"enqueue", "pop", "steal"}[o]
}

// Event is one scheduling decision, delivered to the Observer as it is
// made. Executors bridge events into the trace/obsv pipelines (the
// simulator's ready-task counter track is fed this way) and the
// conformance suite records them to compare decisions across backends.
type Event struct {
	Op Op
	// Worker is the acting worker (OpPop, OpSteal), or -1 when the
	// decision is not attributable to one (enqueues, the inter-node
	// migratable pick made on a remote thief's behalf).
	Worker int
	// Queue is the queue acted on — the destination for OpEnqueue, the
	// popped queue for OpPop, the victim for OpSteal.
	Queue int
	// Inst is the task moved.
	Inst *ptg.Instance
	// Total is the number of tasks queued across the whole Set after
	// the op (-1 when the emitter does not track it).
	Total int
	// Ts is the time the decision was made at, in the emitter's own
	// ticks: nanoseconds since run start for the real executor, virtual
	// nanoseconds for the simulator (0 when a Set has no clock).
	Ts int64
}

// Observer receives scheduling events. A nil Observer costs nothing.
// Observers are called synchronously from scheduling hot paths — in the
// real runtime under a shard lock — so they must be cheap and must not
// call back into the scheduler.
type Observer func(Event)

// Set is the ready-queue state of one scheduling domain — one simulated
// node, or one shared-memory process — implementing the QueueMode
// semantics over n queues: pinning (Home), popping, best-head sibling
// steal, and the whole-set migratable-task pick behind inter-node
// steal. It is not synchronized (see Queue).
type Set struct {
	queues []Queue
	mode   QueueMode
	now    func() int64
	obs    Observer
	total  int
}

// NewSet returns a Set of n queues (n must be 1 for SharedQueue) with
// the discipline implied by the policy and mode. now, if non-nil, is
// the clock observer events are timestamped with (the simulator's
// virtual nanoseconds); obs, if non-nil, receives every decision.
func NewSet(n int, pol Policy, mode QueueMode, now func() int64, obs Observer) *Set {
	if mode == SharedQueue {
		n = 1
	}
	s := &Set{queues: make([]Queue, n), mode: mode, now: now, obs: obs}
	for i := range s.queues {
		s.queues[i] = NewQueue(pol, mode)
	}
	return s
}

// Queues returns the number of queues.
func (s *Set) Queues() int { return len(s.queues) }

// Len returns the depth of one queue.
func (s *Set) Len(q int) int { return s.queues[q].Len() }

// Total returns the number of tasks queued across the whole set.
func (s *Set) Total() int { return s.total }

// Home returns the queue a ready instance is pinned to (HomeQueue over
// this set's queue count).
func (s *Set) Home(in *ptg.Instance) int { return HomeQueue(in, len(s.queues)) }

// HomeQueue is the static pinning both executors share: a ready
// instance lands on queue Seq mod n (queue 0 when there is only one).
func HomeQueue(in *ptg.Instance, n int) int {
	if n == 1 {
		return 0
	}
	return in.Seq % n
}

// Push enqueues a ready instance on its home queue.
func (s *Set) Push(in *ptg.Instance) {
	q := s.Home(in)
	s.queues[q].Push(in)
	s.total++
	s.emit(Event{Op: OpEnqueue, Worker: -1, Queue: q, Inst: in, Total: s.total})
}

// Pop takes the next task from worker wid's own queue (queue 0 in
// SharedQueue mode), or nil.
func (s *Set) Pop(wid int) *ptg.Instance {
	q := wid
	if len(s.queues) == 1 {
		q = 0
	}
	in, _ := s.queues[q].Pop()
	if in != nil {
		s.total--
		s.emit(Event{Op: OpPop, Worker: wid, Queue: q, Inst: in, Total: s.total})
	}
	return in
}

// StealBest takes the Before-best task among the head tasks of every
// queue other than worker wid's own, or nil. This is the deterministic
// sibling steal the discrete-event executor uses: with the global view
// a simulator has for free, the thief takes the best ready task on the
// node. (The real runtime's randomized probe is EachVictim; both live
// here so neither can drift.)
func (s *Set) StealBest(wid int) *ptg.Instance {
	best := -1
	for q := range s.queues {
		if q == wid || s.queues[q].Len() == 0 {
			continue
		}
		if best < 0 || Before(s.queues[q].Peek(), s.queues[best].Peek()) {
			best = q
		}
	}
	if best < 0 {
		return nil
	}
	in, _ := s.queues[best].Pop()
	s.total--
	s.emit(Event{Op: OpSteal, Worker: wid, Queue: best, Inst: in, Total: s.total})
	return in
}

// FindWhere returns the Before-best queued instance satisfying ok
// without removing it, or nil (see Queue.FindWhere).
func (s *Set) FindWhere(ok func(*ptg.Instance) bool) *ptg.Instance {
	in, _, _ := s.findWhere(ok)
	return in
}

// PopWhere removes and returns the Before-best queued instance
// satisfying ok, or nil.
func (s *Set) PopWhere(ok func(*ptg.Instance) bool) *ptg.Instance {
	in, q, i := s.findWhere(ok)
	if in == nil {
		return nil
	}
	s.queues[q].RemoveAt(i)
	s.total--
	s.emit(Event{Op: OpSteal, Worker: -1, Queue: q, Inst: in, Total: s.total})
	return in
}

// findWhere locates the Before-best matching instance and its queue and
// backing-slice index.
func (s *Set) findWhere(ok func(*ptg.Instance) bool) (best *ptg.Instance, bq, bi int) {
	bq, bi = -1, -1
	for q := range s.queues {
		if in, i := s.queues[q].FindWhere(ok); in != nil && (best == nil || Before(in, best)) {
			best, bq, bi = in, q, i
		}
	}
	return best, bq, bi
}

// emit delivers an event to the observer, if any, stamping it with the
// set's clock.
func (s *Set) emit(e Event) {
	if s.obs == nil {
		return
	}
	if s.now != nil {
		e.Ts = s.now()
	}
	s.obs(e)
}
