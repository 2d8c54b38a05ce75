// Package simexec executes a Parameterized Task Graph on the simulated
// distributed-memory cluster. It reproduces the execution architecture of
// PaRSEC on a real machine (§II-B, §V):
//
//   - every node runs a fixed set of worker "threads" sharing one ready
//     queue — the paper's dynamic work stealing within a node (§IV-D);
//   - every node runs one dedicated communication thread; tasks never
//     communicate directly, they express dataflow and the comm thread
//     issues the transfers (§V: "data transfer calls are issued by a
//     specialized communication thread that runs on a dedicated core");
//   - ready tasks are dispatched by priority (PriorityOrder) or most
//     recently produced first (LIFOOrder, the no-priorities behavior of
//     variant v2).
//
// Task durations are charged against the machine model (internal/cluster)
// from each class's Cost function or a registered Behavior; payload sizes
// for transfers come from FlowBytes. Everything else — which task runs
// when, what messages fly where — is the real runtime logic driven by the
// real tracker (internal/ptg), with every scheduling decision taken from
// the shared core (internal/sched) so the simulator provably schedules
// what the real runtime ships.
//
// Workers and comm threads are callback actors of internal/sim, each a
// state machine driven by one owned event: a thread returns to the
// engine whenever a charge or an empty queue makes it wait, and its
// event carries it on. No thread is a coroutine, so a virtual wait costs
// an event and no context switch.
package simexec

import (
	"fmt"

	"parsec/internal/cluster"
	"parsec/internal/fault"
	"parsec/internal/ga"
	"parsec/internal/obsv"
	"parsec/internal/ptg"
	"parsec/internal/sched"
	"parsec/internal/sim"
	"parsec/internal/trace"
)

// Payload is the simulated datum moved along graph edges.
type Payload struct{ Bytes int64 }

// TaskCtx is handed to behaviors. A behavior does not wait itself: it
// appends the task's charge with the methods below, and the worker plays
// the charge in order once the behavior returns, from the same virtual
// instant.
type TaskCtx struct {
	Inst *ptg.Instance
	Node int
	ga   *ga.Sim
	ops  []cluster.Op
}

// Hold charges d of virtual time.
func (c *TaskCtx) Hold(d sim.Time) { c.ops = append(c.ops, cluster.HoldOp(d)) }

// Compute charges a kernel on the task's node (cluster.ComputeOp).
func (c *TaskCtx) Compute(flops, memBytes int64, warm bool) {
	c.ops = append(c.ops, cluster.ComputeOp(c.Node, flops, memBytes, warm))
}

// MemOp charges a memory-bound phase on the task's node
// (cluster.MemoryOp).
func (c *TaskCtx) MemOp(bytes int64, warm bool) {
	c.ops = append(c.ops, cluster.MemoryOp(c.Node, bytes, warm))
}

// Lock locks the task's node's write mutex.
func (c *TaskCtx) Lock() { c.ops = append(c.ops, cluster.LockOp(c.Node)) }

// Unlock unlocks the task's node's write mutex.
func (c *TaskCtx) Unlock() { c.ops = append(c.ops, cluster.UnlockOp(c.Node)) }

// AddHashBlock charges a Global Arrays accumulate from the task's node
// into owner's block (ga.Sim.AccOp).
func (c *TaskCtx) AddHashBlock(owner int, bytes int64, rows int) {
	c.ops = append(c.ops, c.ga.AccOp(c.Node, owner, bytes, rows))
}

// ActiveInputs returns the payloads of the instance's satisfied
// task-sourced flows, in flow order.
func (c *TaskCtx) ActiveInputs() []Payload {
	var ps []Payload
	for _, in := range c.Inst.In {
		if p, ok := in.(Payload); ok {
			ps = append(ps, p)
		}
	}
	return ps
}

// Behavior simulates a task class's execution beyond a plain Cost charge
// (e.g. Global Arrays interactions, mutex-protected critical sections)
// by appending that charge to ctx.
type Behavior func(ctx *TaskCtx)

// RetryPolicy controls how a node's communication thread recovers from
// transfers the fault injector drops. The sender detects a lost payload
// (or a lost ack) only after Timeout, then waits a capped exponential
// backoff before retransmitting: Backoff, 2*Backoff, ... up to
// BackoffCap. After MaxRetries retransmissions the transfer — and the
// run — fails.
type RetryPolicy struct {
	Timeout    sim.Time
	Backoff    sim.Time
	BackoffCap sim.Time
	MaxRetries int
}

// DefaultRetryPolicy returns the policy used when faults are injected
// and the caller did not set one: detection well above the network RTT,
// backoff that caps below typical task durations, and enough attempts
// that a run only fails under a truly partitioned link.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Timeout:    200 * sim.Microsecond,
		Backoff:    50 * sim.Microsecond,
		BackoffCap: 800 * sim.Microsecond,
		MaxRetries: 10,
	}
}

// Config controls a simulated run.
type Config struct {
	CoresPerNode int // worker threads per node (comm thread is extra)
	Policy       sched.Policy
	// Queues selects the intra-node scheduling structure (default
	// SharedQueue).
	Queues sched.QueueMode
	// Behaviors overrides execution per class name; classes without an
	// entry charge their Cost function.
	Behaviors map[string]Behavior
	// Trace, if non-nil, receives one span per task execution — the
	// worker is the thread within its node, the graph's skeleton names
	// the instance — plus per-node counter tracks (ready-queue depth,
	// in-flight communication bytes) that the Chrome/Perfetto export
	// renders alongside the Gantt rows.
	Trace *trace.Trace
	// Horizon aborts the simulation after this much virtual time
	// (0 = unlimited).
	Horizon sim.Time
	// Retry configures the comm thread's loss recovery. The zero value
	// selects DefaultRetryPolicy; it is only consulted when the machine
	// has a fault injector that can drop transfers.
	Retry RetryPolicy
	// InterNodeSteal extends PerWorkerSteal across node boundaries: a
	// worker with no local work may re-dispatch a ready task queued on
	// another node, paying the transfer of the task's input payloads to
	// its own node (its GETs move with it). Requires Queues ==
	// PerWorkerSteal.
	InterNodeSteal bool
	// Migratable filters which classes InterNodeSteal may move. nil
	// allows every class without a Behaviors entry — behaviors model
	// node-resident state (GA handles, the node write mutex) that cannot
	// migrate.
	Migratable func(class string) bool
	// SchedObserver, if non-nil, receives every scheduling decision
	// (enqueue/pop/steal) with Event.Queue offset by the node's first
	// flat worker index, mirroring runtime.Config.SchedObserver so the
	// conformance suite can compare decisions across backends.
	SchedObserver sched.Observer
}

// Result summarizes a simulated run.
type Result struct {
	Makespan sim.Time
	Tasks    int
	ByClass  map[string]int
	// BytesSent is the total payload volume moved between distinct nodes.
	BytesSent int64
	// Transfers is the number of inter-node deliveries.
	Transfers int
	// BytesByClass splits BytesSent by the consuming task's class — the
	// communication-volume attribution of the profile report.
	BytesByClass map[string]int64
	// Gets/Adds count the Global Arrays one-sided operations the run
	// issued and GetBytes/AddBytes their payload, as cgp.Result reports
	// them for the original code: the GET-vs-ACC split of the profile
	// report.
	Gets, Adds         int64
	GetBytes, AddBytes int64

	// Recovery counters, nonzero only under fault injection.
	//
	// Retries counts retransmissions after a payload or ack loss;
	// Drops/AckDrops split the losses by kind. DupSuppressed counts
	// deliveries discarded because an earlier attempt already landed
	// (the receiver's at-least-once dedup). BackoffTime is the total
	// virtual time comm threads spent in retry backoff (detection
	// timeouts excluded), and RetransmitBytes the wire volume beyond
	// the first attempt.
	Retries         int
	Drops           int
	AckDrops        int
	DupSuppressed   int
	BackoffTime     sim.Time
	RetransmitBytes int64
	// Redispatches counts ready tasks migrated off their affinity node
	// by the inter-node steal path; RedispatchBytes is the input payload
	// volume that moved with them.
	Redispatches    int
	RedispatchBytes int64
}

// String summarizes the run in one line.
func (r Result) String() string {
	return fmt.Sprintf("makespan=%v tasks=%d transfers=%d (%.1f MB)",
		r.Makespan, r.Tasks, r.Transfers, float64(r.BytesSent)/1e6)
}

// Run executes the graph on the machine and returns the result. The
// machine's engine must be fresh (time zero) and is run to completion.
func Run(g *ptg.Graph, m *cluster.Machine, gasim *ga.Sim, cfg Config) (Result, error) {
	tr, err := ptg.NewTracker(g)
	if err != nil {
		return Result{}, err
	}
	if cfg.CoresPerNode <= 0 {
		return Result{}, fmt.Errorf("simexec: CoresPerNode = %d", cfg.CoresPerNode)
	}
	if cfg.InterNodeSteal && cfg.Queues != sched.PerWorkerSteal {
		return Result{}, fmt.Errorf("simexec: InterNodeSteal requires PerWorkerSteal queues")
	}
	if cfg.Retry == (RetryPolicy{}) {
		cfg.Retry = DefaultRetryPolicy()
	}
	if cfg.Migratable == nil {
		cfg.Migratable = func(class string) bool {
			_, hasBehavior := cfg.Behaviors[class]
			return !hasBehavior
		}
	}
	ex := &executor{
		tr:    tr,
		m:     m,
		cfg:   cfg,
		nodes: make([]*nodeState, m.Cfg.Nodes),
		boxed: make(map[int64]any),
	}
	if cfg.Trace != nil {
		ex.spans = make([][]trace.Span, m.Cfg.Nodes*cfg.CoresPerNode)
	}
	classes := g.Classes()
	ex.behaviors = make([]Behavior, len(classes))
	for ci, tc := range classes {
		ex.behaviors[ci] = cfg.Behaviors[tc.Name]
	}
	ex.byClass = make([]int, len(classes))
	ex.sentTo = make([]classBytes, len(classes))
	nq := cfg.CoresPerNode // NewSet collapses to one queue in SharedQueue mode
	for n := range ex.nodes {
		n := n
		ex.nodes[n] = &nodeState{
			// The set's observer keeps the per-node ready-task counter
			// track in the trace current: every enqueue/pop/steal
			// reports the new depth. The external observer, if any, sees
			// the same events with queue/worker indices flattened across
			// nodes.
			rq: sched.NewSet(nq, cfg.Policy, cfg.Queues, ex.Now, func(e sched.Event) {
				ex.sample("ready tasks", n, float64(e.Total))
				if obs := cfg.SchedObserver; obs != nil {
					base := n * cfg.CoresPerNode
					e.Queue += base
					if e.Worker >= 0 {
						e.Worker += base
					}
					obs(e)
				}
			}),
			workersIdle: sim.NewWaitQ(m.Eng),
			commIdle:    sim.NewWaitQ(m.Eng),
		}
	}
	// Seed each node with its share of the plan's sorted ready run, which
	// its queues adopt as the runtime's shards do; no worker is parked
	// yet, so there is nobody to wake.
	initial := tr.AppendInitialReady(nil)
	var outside *ptg.Instance
	for _, in := range initial {
		if (in.Node < 0 || in.Node >= len(ex.nodes)) && (outside == nil || in.Seq < outside.Seq) {
			outside = in
		}
	}
	if outside != nil {
		return Result{}, outsideErr(outside)
	}
	sched.SplitRun(initial, len(ex.nodes), func(in *ptg.Instance) int { return in.Node }, func(n int, run []*ptg.Instance) {
		ex.nodes[n].rq.Preload(run)
	})
	// Start workers and comm threads, each node's workers then its comm
	// thread, every one at time zero in that order.
	workers := make([]worker, m.Cfg.Nodes*cfg.CoresPerNode)
	comms := make([]comm, m.Cfg.Nodes)
	for n := range comms {
		for wid := 0; wid < cfg.CoresPerNode; wid++ {
			w := &workers[n*cfg.CoresPerNode+wid]
			*w = worker{ex: ex, node: n, wid: wid, ctx: TaskCtx{Node: n, ga: gasim}}
			w.ev.Bind(w.run)
			m.Eng.After(&w.ev, 0)
		}
		c := &comms[n]
		*c = comm{ex: ex, node: n}
		c.ev.Bind(c.run)
		m.Eng.After(&c.ev, 0)
	}
	end, err := m.Eng.Run(cfg.Horizon)
	// Each node's spans go over grouped by worker, each worker's in start
	// order; a failed run hands over what it recorded too.
	for flat, spans := range ex.spans {
		cfg.Trace.AddSpans(flat/cfg.CoresPerNode, spans, tr.Skeleton())
	}
	if err != nil {
		return Result{}, fmt.Errorf("simexec: %w", err)
	}
	if ex.err != nil {
		return Result{}, ex.err
	}
	// Threads left waiting are not an engine error: a graph that stalls
	// leaves its workers parked and is caught here.
	if qerr := tr.CheckQuiescent(); qerr != nil {
		return Result{}, qerr
	}
	ex.res.Makespan = end
	ex.res.Tasks = tr.NumInstances()
	ex.res.ByClass, ex.res.BytesByClass = make(map[string]int), make(map[string]int64)
	for ci, tc := range classes {
		if ex.byClass[ci] > 0 {
			ex.res.ByClass[tc.Name] = ex.byClass[ci]
		}
		if ex.sentTo[ci].any {
			ex.res.BytesByClass[tc.Name] = ex.sentTo[ci].bytes
		}
	}
	ex.res.Gets, ex.res.Adds = gasim.Stats()
	ex.res.GetBytes, ex.res.AddBytes = gasim.ByteStats()
	return ex.res, nil
}

// transfer is one pending inter-node delivery handled by a comm thread.
type transfer struct {
	del     ptg.Delivery
	payload Payload
}

// nodeState is the per-node scheduler state. The DES runs one actor at a
// time, so no locking is needed.
type nodeState struct {
	// rq is this node's ready-queue set: the scheduling core decides
	// pinning, pop order, and steal picks; the trace's ready-task
	// counter rides its observer.
	rq          *sched.Set
	workersIdle *sim.WaitQ
	commQ       sim.FIFO[transfer]
	commIdle    *sim.WaitQ
	// commBytes mirrors the in-flight transfer volume for the counter
	// track.
	commBytes int64
}

type executor struct {
	tr    *ptg.Tracker
	m     *cluster.Machine
	cfg   Config
	nodes []*nodeState
	// dels is complete's Delivery buffer, reused by every task: nothing
	// it calls waits, so no other actor runs while it iterates.
	dels []ptg.Delivery
	// behaviors, byClass and sentTo are indexed by TaskClass.Index: a
	// class's behavior resolved once, and the per-class tallies the
	// result's maps are built from at the end.
	behaviors []Behavior
	byClass   []int
	sentTo    []classBytes
	boxed     map[int64]any // deliver's Payload per size
	// spans is each worker's recording buffer by flat index, when the
	// run is traced.
	spans [][]trace.Span
	res   Result
	done  bool
	err   error
}

// classBytes tallies the inter-node transfers into one class: the
// result names a class once any transfer reached it, zero bytes or not.
type classBytes struct {
	bytes int64
	any   bool
}

// Now returns the current virtual time in nanoseconds: the clock the
// ready sets stamp scheduling events with.
func (ex *executor) Now() int64 { return int64(ex.m.Eng.Now()) }

func (ex *executor) fail(err error) {
	if ex.err == nil {
		ex.err = err
	}
	ex.m.Eng.Stop()
}

// sample records one counter-track sample when tracing is enabled.
func (ex *executor) sample(name string, node int, v float64) {
	if ex.cfg.Trace == nil {
		return
	}
	ex.cfg.Trace.AddCounter(trace.Counter{
		Name: name, Node: node, Ts: int64(ex.m.Eng.Now()), Value: v,
	})
}

// enqueue adds a ready task to its home queue on its affinity node and
// wakes a worker.
func (ex *executor) enqueue(in *ptg.Instance) {
	node := in.Node
	if node < 0 || node >= len(ex.nodes) {
		ex.fail(outsideErr(in))
		return
	}
	ns := ex.nodes[node]
	ns.rq.Push(in)
	if ex.cfg.Queues == sched.SharedQueue {
		ns.workersIdle.WakeOne()
	} else {
		// Wake everyone: the task is pinned to (or stealable by) a
		// specific worker that WakeOne might miss.
		ns.workersIdle.WakeAll()
	}
	if ex.cfg.InterNodeSteal && ex.cfg.Migratable(in.Ref.Class) {
		// A parked worker on any node is a potential thief for this task.
		for n, other := range ex.nodes {
			if n != node {
				other.workersIdle.WakeOne()
			}
		}
	}
}

// outsideErr reports a task whose affinity names no node of the machine.
func outsideErr(in *ptg.Instance) error {
	return fmt.Errorf("simexec: %v has affinity %d outside machine", in.Ref, in.Node)
}

// dequeueFor pops the next task for a specific worker: its own queue
// first, then — when the mode allows it — the core's best-head steal
// from a sibling's queue.
func (ex *executor) dequeueFor(node, wid int) *ptg.Instance {
	ns := ex.nodes[node]
	if in := ns.rq.Pop(wid); in != nil {
		return in
	}
	if ex.cfg.Queues == sched.PerWorkerSteal {
		return ns.rq.StealBest(wid)
	}
	return nil
}

// worker is one compute thread, a callback actor driven by ev. It
// dispatches a task, plays the task's charge, completes the task and
// goes on to the next, returning to the engine whenever the charge or an
// empty queue makes it wait.
type worker struct {
	ex        *executor
	ev        sim.Event
	node, wid int
	state     workerState
	in        *ptg.Instance // the task in hand
	moved     int64         // input bytes a stolen task brings along
	start     sim.Time      // when the task in hand started
	ctx       TaskCtx       // its charge; ctx.ops[next:] is still to play
	next      int
}

type workerState uint8

const (
	dispatching workerState = iota // between tasks, or parked for work
	stealing                       // a stolen task's inputs in transfer
	running                        // the task's charge in play
)

// run carries the worker on from where it last waited.
func (w *worker) run() {
	ex := w.ex
	for {
		for ; w.next < len(w.ctx.ops); w.next++ {
			if !ex.m.Step(&w.ctx.ops[w.next], &w.ev) {
				return
			}
		}
		switch w.state {
		case dispatching:
			in := ex.dequeueFor(w.node, w.wid)
			if in == nil && ex.cfg.InterNodeSteal {
				if in = w.stealRemote(); in != nil {
					w.in, w.state = in, stealing
					continue
				}
			}
			if in == nil {
				if !ex.done {
					ex.nodes[w.node].workersIdle.Park(&w.ev)
				}
				return
			}
			w.in = in
			if !w.begin() {
				return
			}
		case stealing:
			ex.res.Redispatches++
			ex.res.RedispatchBytes += w.moved
			if !w.begin() {
				return
			}
		case running:
			in := w.in
			if ex.spans != nil {
				flat := w.node*ex.cfg.CoresPerNode + w.wid
				ex.spans[flat] = append(ex.spans[flat], trace.Span{Seq: uint32(in.Seq), Worker: uint32(w.wid), Start: int64(w.start), End: int64(ex.m.Eng.Now())})
			}
			w.in, w.state = nil, dispatching
			ex.complete(in, w.node)
			if ex.err != nil {
				return
			}
		}
	}
}

// begin starts the task in hand and lays out its charge. It reports
// false if the run failed.
func (w *worker) begin() bool {
	ex := w.ex
	if err := ex.tr.Start(w.in); err != nil {
		ex.fail(err)
		return false
	}
	w.start = ex.m.Eng.Now()
	w.charge(w.in)
	w.state = running
	return true
}

// charge lays out the task's simulated duration: its class's Behavior,
// else its Cost.
func (w *worker) charge(in *ptg.Instance) {
	c := &w.ctx
	c.Inst, c.ops, w.next = in, c.ops[:0], 0
	if b := w.ex.behaviors[in.Class.Index()]; b != nil {
		b(c)
		return
	}
	if in.Class.Cost != nil {
		cost := in.Class.Cost(in.Ref.Args)
		if cost.GemmBytes > 0 || (cost.Flops > 0 && in.Ref.Class == "GEMM") {
			c.ops = append(c.ops, cluster.GemmOp(w.node, cost.Flops, cost.GemmBytes))
			if cost.MemBytes > 0 {
				c.MemOp(cost.MemBytes, cost.Warm)
			}
			return
		}
		c.Compute(cost.Flops, cost.MemBytes, cost.Warm)
	}
}

// stealRemote re-dispatches a ready task queued on another node to this
// worker: the inter-node extension of PerWorkerSteal. The thief picks
// the node with the deepest ready backlog holding a migratable task,
// removes that victim's best such task, and pays the transfer of the
// task's already-delivered input payloads to its own node — the task's
// GETs move with it. Behind a straggler this converts queueing delay
// into one bounded data movement; the fault-free cost is nothing, since
// workers only probe when they have no local work. The transfer becomes
// the worker's charge.
func (w *worker) stealRemote() *ptg.Instance {
	ex, node := w.ex, w.node
	migratable := func(in *ptg.Instance) bool { return ex.cfg.Migratable(in.Ref.Class) }
	victim := -1
	for n, ns := range ex.nodes {
		// Raid only genuinely backed-up victims: a node whose ready
		// backlog fits its own cores drains it within one task round, and
		// migrating from it buys wire time for no queueing delay. The
		// threshold also keeps fast nodes from churning tasks among
		// themselves during uneven startup.
		if n == node || ns.rq.Total() <= ex.cfg.CoresPerNode ||
			(victim >= 0 && ns.rq.Total() <= ex.nodes[victim].rq.Total()) {
			continue
		}
		if ns.rq.FindWhere(migratable) != nil {
			victim = n
		}
	}
	if victim < 0 {
		return nil
	}
	in := ex.nodes[victim].rq.PopWhere(migratable)
	if in == nil {
		return nil
	}

	var moved int64
	for _, inp := range in.In {
		if pl, ok := inp.(Payload); ok {
			moved += pl.Bytes
		}
	}
	w.moved, w.next = moved, 0
	w.ctx.ops = append(w.ctx.ops[:0], cluster.TransferOp(node, victim, moved))
	return in
}

// complete evaluates the finished task's dataflow: local deliveries are
// immediate, remote ones are queued on the communication thread of the
// node that executed the task (its affinity node unless the task was
// re-dispatched).
func (ex *executor) complete(in *ptg.Instance, node int) {
	var err error
	if ex.dels, err = ex.tr.Complete(in, ex.dels[:0]); err != nil {
		ex.fail(err)
		return
	}
	ex.byClass[in.Class.Index()]++
	for _, d := range ex.dels {
		pl := Payload{Bytes: d.Bytes}
		if d.To.Node == node {
			ex.deliver(d, pl)
		} else {
			ns := ex.nodes[node]
			ns.commQ.Push(transfer{del: d, payload: pl})
			ns.commBytes += pl.Bytes
			ex.sample("comm bytes in flight", node, float64(ns.commBytes))
			ns.commIdle.WakeOne()
		}
	}
	ex.checkDone()
}

// deliver satisfies the consumer's input and enqueues it if it became
// ready. A payload is an immutable value and a run's edges carry a few
// distinct sizes, so each size is boxed once per run rather than once
// per delivery.
func (ex *executor) deliver(d ptg.Delivery, pl Payload) {
	boxed, ok := ex.boxed[pl.Bytes]
	if !ok {
		boxed = pl
		ex.boxed[pl.Bytes] = boxed
	}
	ready, err := ex.tr.Deliver(d.To, d.ToFlow, boxed)
	if err != nil {
		ex.fail(err)
		return
	}
	if ready {
		ex.enqueue(d.To)
	}
}

// comm is one node's communication thread, a callback actor driven by
// ev: it serves queued transfers in FIFO order, one at a time, charging
// network latency and this node's NIC injection bandwidth per payload,
// and pushes each through until its ack comes back, retrying around
// injected faults:
//
//   - payload drop: the receiver saw nothing; the sender burns the
//     detection timeout, waits out the (capped, doubling) backoff, and
//     retransmits;
//   - ack drop: the payload landed, so the first arrival is delivered
//     and later arrivals are suppressed as duplicates, but the sender —
//     which cannot tell an ack loss from a payload loss — still times
//     out and retransmits;
//   - latency spike: the attempt succeeds after extra delay.
//
// Exhausting MaxRetries retransmissions fails the run: the link is
// treated as partitioned, which the dataflow model cannot route around.
type comm struct {
	ex        *executor
	ev        sim.Event
	node      int
	state     commState
	t         transfer // the transfer in hand
	attempt   int
	backoff   sim.Time
	delivered bool              // an attempt of t has landed
	out       fault.XferOutcome // this attempt's fault draw
	wire      cluster.Op        // this attempt's transfer
}

type commState uint8

const (
	commIdle      commState = iota // between transfers, or parked for one
	commAttempt                    // draw the next attempt's faults
	commSpiked                     // a latency spike held; send or lose
	commWire                       // the payload on the wire
	commTimedOut                   // the ack timeout held
	commBackedOff                  // the backoff held; retransmit
)

// run carries the comm thread on from where it last waited.
func (c *comm) run() {
	ex := c.ex
	ns, pol := ex.nodes[c.node], ex.cfg.Retry
	for {
		switch c.state {
		case commIdle:
			if ns.commQ.Len() == 0 {
				if !ex.done {
					ns.commIdle.Park(&c.ev)
				}
				return
			}
			c.t = ns.commQ.Pop()
			c.attempt, c.backoff, c.delivered = 1, pol.Backoff, false
			c.state = commAttempt
		case commAttempt:
			c.out = ex.m.Faults().Transfer(c.node, c.t.del.To.Node)
			c.state = commSpiked
			if c.out.Extra > 0 {
				ex.m.Eng.After(&c.ev, c.out.Extra)
				return
			}
		case commSpiked:
			if c.out.Drop {
				ex.res.Drops++
				c.timeout()
				return
			}
			c.wire = cluster.TransferOp(c.node, c.t.del.To.Node, c.t.payload.Bytes)
			c.state = commWire
		case commWire:
			if !ex.m.Step(&c.wire, &c.ev) {
				return
			}
			if c.attempt > 1 {
				ex.res.RetransmitBytes += c.t.payload.Bytes
			}
			if c.delivered {
				ex.res.DupSuppressed++
			} else {
				c.delivered = true
				ex.res.BytesSent += c.t.payload.Bytes
				ex.res.Transfers++
				sent := &ex.sentTo[c.t.del.To.Class.Index()]
				sent.bytes += c.t.payload.Bytes
				sent.any = true
				ex.deliver(c.t.del, c.t.payload)
				if ex.err != nil {
					c.finish()
					return
				}
			}
			if !c.out.AckDrop {
				c.finish()
				continue
			}
			ex.res.AckDrops++
			c.timeout()
			return
		case commTimedOut:
			if c.attempt > pol.MaxRetries {
				ex.fail(fmt.Errorf("simexec: transfer %s -> node %d for %v lost %d times, retries exhausted",
					obsv.FormatBytes(c.t.payload.Bytes), c.t.del.To.Node, c.t.del.To.Ref, c.attempt))
				c.finish()
				return
			}
			ex.res.Retries++
			ex.res.BackoffTime += c.backoff
			ex.m.Eng.After(&c.ev, c.backoff)
			c.state = commBackedOff
			return
		case commBackedOff:
			if c.backoff *= 2; c.backoff > pol.BackoffCap {
				c.backoff = pol.BackoffCap
			}
			c.attempt++
			c.state = commAttempt
		}
	}
}

// timeout waits out the ack timeout of an attempt whose ack never came
// (payload or ack lost).
func (c *comm) timeout() {
	c.ex.m.Eng.After(&c.ev, c.ex.cfg.Retry.Timeout)
	c.state = commTimedOut
}

// finish retires the transfer in hand from the in-flight volume.
func (c *comm) finish() {
	ns := c.ex.nodes[c.node]
	ns.commBytes -= c.t.payload.Bytes
	c.ex.sample("comm bytes in flight", c.node, float64(ns.commBytes))
	c.t, c.state = transfer{}, commIdle
}

// checkDone wakes every parked thread once all tasks completed so the
// simulation can drain.
func (ex *executor) checkDone() {
	if ex.done || !ex.tr.Done() {
		return
	}
	ex.done = true
	for _, ns := range ex.nodes {
		ns.workersIdle.WakeAll()
		ns.commIdle.WakeAll()
	}
}
