// Package sched is the substrate-agnostic scheduling core shared by
// every executor in the repo: the real worker loop (internal/runtime's
// Executor, which also runs each internal/netrun rank) and the
// distributed discrete-event executor (internal/simexec). It holds the
// single copy of the decisions that make a schedule: the ready-task
// ordering policy, the queue structure, the total order ready tasks are
// popped in, steal-victim selection, and the randomized probe stream
// work stealing draws from.
//
// Before this package existed each executor carried its own copy of
// Policy, QueueMode, the priority heap, and the steal logic, and the
// copies could drift — which would silently break the central claim of
// every simulator-vs-runtime comparison (Fig 9, the fault sweeps): that
// the simulator schedules what the real runtime ships. Now a decision is
// made in exactly one place and the conformance suite
// (conformance_test.go) proves both executors pop identical orders for
// every Policy×QueueMode combination.
//
// The core holds decisions only, so the same logic runs under real
// goroutines parking on channels and under simulated callback actors on
// a virtual clock. Executors keep their own concurrency machinery —
// the runtime's sharded locks and park/unpark coordinator, the
// simulator's sim.WaitQ-parked worker events — and borrow decisions
// from here;
// the one thing a Set takes from its executor is a clock to timestamp
// observer events with.
package sched

// Policy selects how ready tasks are ordered.
type Policy int

const (
	// PriorityOrder dispatches the highest-priority ready task first
	// (ties broken by creation order; see Before). This is PaRSEC's
	// behavior when the developer supplies priority expressions (§IV-C).
	PriorityOrder Policy = iota
	// LIFOOrder dispatches the most recently enqueued ready task first,
	// ignoring priorities — the behavior the paper's v2 variant exhibits
	// with no priorities set (§V, Fig 11).
	LIFOOrder
)

// String names the policy ("priority" or "lifo").
func (p Policy) String() string {
	if p == LIFOOrder {
		return "lifo"
	}
	return "priority"
}

// QueueMode selects how ready tasks are distributed among workers (of
// one shared-memory process or one simulated node): one shared queue
// (dynamic load balancing), statically pinned per-worker queues, or
// pinned queues with stealing — PaRSEC's per-thread queues (§IV-D)
// correspond to PerWorkerSteal.
type QueueMode int

const (
	// SharedQueue gives all workers one ready queue: the intra-node
	// dynamic load balancing PaRSEC uses.
	SharedQueue QueueMode = iota
	// PerWorker statically assigns each ready task to one worker's
	// private queue; idle workers do not steal (the ablation baseline).
	PerWorker
	// PerWorkerSteal assigns tasks as PerWorker but lets an idle worker
	// steal a ready task from a sibling's queue.
	PerWorkerSteal
)

// String names the queue mode ("shared", "pinned", "pinned-steal").
func (q QueueMode) String() string {
	switch q {
	case PerWorker:
		return "pinned"
	case PerWorkerSteal:
		return "pinned-steal"
	}
	return "shared"
}
