// Package simexec executes a Parameterized Task Graph on the simulated
// distributed-memory cluster. It reproduces the execution architecture of
// PaRSEC on a real machine (§II-B, §V):
//
//   - every node runs a fixed set of worker "threads" (simulated
//     processes) sharing one ready queue — the paper's dynamic work
//     stealing within a node (§IV-D);
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
package simexec

import (
	"fmt"

	"parsec/internal/cluster"
	"parsec/internal/ga"
	"parsec/internal/metrics"
	"parsec/internal/ptg"
	"parsec/internal/sched"
	"parsec/internal/sim"
	"parsec/internal/trace"
)

// Payload is the simulated datum moved along graph edges.
type Payload struct{ Bytes int64 }

// TaskCtx is handed to behaviors.
type TaskCtx struct {
	P    *sim.Proc
	M    *cluster.Machine
	GA   *ga.Sim
	Inst *ptg.Instance
	Node int
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
// (e.g. Global Arrays interactions, mutex-protected critical sections).
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
	// Trace, if non-nil, receives one event per task execution, plus
	// per-node counter tracks (ready-queue depth, in-flight communication
	// bytes) that the Chrome/Perfetto export renders alongside the Gantt
	// rows.
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
		ga:    gasim,
		cfg:   cfg,
		nodes: make([]*nodeState, m.Cfg.Nodes),
		procs: make([]*sim.Proc, m.Cfg.Nodes*cfg.CoresPerNode),
		res:   Result{ByClass: make(map[string]int), BytesByClass: make(map[string]int64)},
	}
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
	// Seed initial ready tasks.
	for _, in := range tr.InitialReady() {
		ex.enqueue(in)
	}
	// Start workers and comm threads.
	for n := 0; n < m.Cfg.Nodes; n++ {
		n := n
		for w := 0; w < cfg.CoresPerNode; w++ {
			w := w
			m.Eng.Go(fmt.Sprintf("n%d.w%d", n, w), func(p *sim.Proc) { ex.worker(p, n, w) })
		}
		m.Eng.Go(fmt.Sprintf("n%d.comm", n), func(p *sim.Proc) { ex.comm(p, n) })
	}
	end, err := m.Eng.Run(cfg.Horizon)
	if err != nil {
		return Result{}, fmt.Errorf("simexec: %w", err)
	}
	if ex.err != nil {
		return Result{}, ex.err
	}
	if qerr := tr.CheckQuiescent(); qerr != nil {
		return Result{}, qerr
	}
	ex.res.Makespan = end
	ex.res.Tasks = tr.NumInstances()
	ex.res.Gets, ex.res.Adds = gasim.Stats()
	ex.res.GetBytes, ex.res.AddBytes = gasim.ByteStats()
	return ex.res, nil
}

// transfer is one pending inter-node delivery handled by a comm thread.
type transfer struct {
	del     ptg.Delivery
	payload Payload
}

// nodeState is the per-node scheduler state. The DES runs one process at
// a time, so no locking is needed.
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
	ga    *ga.Sim
	cfg   Config
	nodes []*nodeState
	// procs registers each worker's simulated process by flat index
	// (node*CoresPerNode+wid) so the substrate's idle primitive can park
	// the caller on its node's wait queue.
	procs []*sim.Proc
	// dels is complete's Delivery buffer, reused by every task: nothing
	// it calls blocks, so no other process runs while it iterates.
	dels []ptg.Delivery
	res  Result
	done bool
	err  error
}

// Now returns the current virtual time in nanoseconds: the clock the
// ready sets stamp scheduling events with.
func (ex *executor) Now() int64 { return int64(ex.m.Eng.Now()) }

// Idle suspends the calling worker's simulated process on its node's
// wait queue until new work may be available.
func (ex *executor) Idle(worker int) {
	ex.nodes[worker/ex.cfg.CoresPerNode].workersIdle.Wait(ex.procs[worker])
}

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
		ex.fail(fmt.Errorf("simexec: %v has affinity %d outside machine", in.Ref, node))
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

// worker is the main loop of one compute thread.
func (ex *executor) worker(p *sim.Proc, node, wid int) {
	flat := node*ex.cfg.CoresPerNode + wid
	ex.procs[flat] = p
	for {
		in := ex.dequeueFor(node, wid)
		if in == nil && ex.cfg.InterNodeSteal {
			in = ex.stealRemote(p, node, wid)
			if ex.err != nil {
				return
			}
		}
		if in == nil {
			if ex.done {
				return
			}
			ex.Idle(flat)
			continue
		}
		if err := ex.tr.Start(in); err != nil {
			ex.fail(err)
			return
		}
		start := p.Now()
		ex.execute(p, node, in)
		if ex.err != nil {
			return
		}
		if ex.cfg.Trace != nil {
			ex.cfg.Trace.Add(trace.Event{
				Node: node, Thread: wid, Seq: in.Seq,
				Class: in.Ref.Class, Label: in.Ref.String(),
				Start: int64(start), End: int64(p.Now()),
			})
		}
		ex.complete(in, node)
		if ex.err != nil {
			return
		}
	}
}

// stealRemote re-dispatches a ready task queued on another node to this
// worker: the inter-node extension of PerWorkerSteal. The thief picks
// the node with the deepest ready backlog holding a migratable task,
// removes that victim's best such task, and pays the transfer of the
// task's already-delivered input payloads to its own node — the task's
// GETs move with it. Behind a straggler this converts queueing delay
// into one bounded data movement; the fault-free cost is nothing, since
// workers only probe when they have no local work.
func (ex *executor) stealRemote(p *sim.Proc, node, wid int) *ptg.Instance {
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
	start := p.Now()
	ex.m.Transfer(p, node, victim, moved)
	ex.res.Redispatches++
	ex.res.RedispatchBytes += moved
	if ex.cfg.Trace != nil && p.Now() > start {
		ex.cfg.Trace.Add(trace.Event{
			Node: node, Thread: wid, Seq: in.Seq,
			Class: "MIGRATE", Label: in.Ref.String(),
			Start: int64(start), End: int64(p.Now()),
		})
	}
	return in
}

// execute charges the task's simulated duration.
func (ex *executor) execute(p *sim.Proc, node int, in *ptg.Instance) {
	if b, ok := ex.cfg.Behaviors[in.Ref.Class]; ok {
		b(&TaskCtx{P: p, M: ex.m, GA: ex.ga, Inst: in, Node: node})
		return
	}
	if in.Class.Cost != nil {
		c := in.Class.Cost(in.Ref.Args)
		if c.GemmBytes > 0 || (c.Flops > 0 && in.Ref.Class == "GEMM") {
			ex.m.Gemm(p, node, c.Flops, c.GemmBytes)
			if c.MemBytes > 0 {
				ex.m.MemOp(p, node, c.MemBytes, c.Warm)
			}
			return
		}
		ex.m.Compute(p, node, c.Flops, c.MemBytes, c.Warm)
	}
}

// complete evaluates the finished task's dataflow: local deliveries are
// immediate, remote ones are queued on the communication thread of the
// node that executed the task (its affinity node unless the task was
// re-dispatched).
func (ex *executor) complete(in *ptg.Instance, node int) {
	var err error
	if ex.dels, _, err = ex.tr.Complete(in, ex.dels[:0]); err != nil {
		ex.fail(err)
		return
	}
	ex.res.ByClass[in.Ref.Class]++
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
// ready.
func (ex *executor) deliver(d ptg.Delivery, pl Payload) {
	ready, err := ex.tr.Deliver(d.To, d.ToFlow, pl)
	if err != nil {
		ex.fail(err)
		return
	}
	if ready {
		ex.enqueue(d.To)
	}
}

// comm is the main loop of one node's communication thread: it serves
// queued transfers in FIFO order, one at a time, charging network latency
// and this node's NIC injection bandwidth per payload. Each transfer
// runs through the retry state machine in send.
func (ex *executor) comm(p *sim.Proc, node int) {
	ns := ex.nodes[node]
	for {
		if ns.commQ.Len() == 0 {
			if ex.done {
				return
			}
			ns.commIdle.Wait(p)
			continue
		}
		t := ns.commQ.Pop()
		ex.send(p, node, t)
		ns.commBytes -= t.payload.Bytes
		ex.sample("comm bytes in flight", node, float64(ns.commBytes))
		if ex.err != nil {
			return
		}
	}
}

// send pushes one transfer through until its ack comes back, retrying
// around injected faults:
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
func (ex *executor) send(p *sim.Proc, node int, t transfer) {
	pol := ex.cfg.Retry
	inj := ex.m.Faults()
	backoff := pol.Backoff
	delivered := false
	retried := false
	start := p.Now()
	for attempt := 1; ; attempt++ {
		out := inj.Transfer(node, t.del.To.Node)
		if out.Extra > 0 {
			p.Hold(out.Extra)
		}
		lost := out.Drop
		if !lost {
			ex.m.Transfer(p, node, t.del.To.Node, t.payload.Bytes)
			if attempt > 1 {
				ex.res.RetransmitBytes += t.payload.Bytes
			}
			if delivered {
				ex.res.DupSuppressed++
			} else {
				delivered = true
				ex.res.BytesSent += t.payload.Bytes
				ex.res.Transfers++
				ex.res.BytesByClass[t.del.To.Ref.Class] += t.payload.Bytes
				ex.deliver(t.del, t.payload)
				if ex.err != nil {
					return
				}
			}
			if !out.AckDrop {
				break
			}
			ex.res.AckDrops++
		} else {
			ex.res.Drops++
		}
		// The ack never arrived (payload or ack lost): detect by timeout,
		// back off, retransmit.
		p.Hold(pol.Timeout)
		if attempt > pol.MaxRetries {
			ex.fail(fmt.Errorf("simexec: transfer %s -> node %d for %v lost %d times, retries exhausted",
				metrics.FormatBytes(t.payload.Bytes), t.del.To.Node, t.del.To.Ref, attempt))
			return
		}
		ex.res.Retries++
		ex.res.BackoffTime += backoff
		retried = true
		p.Hold(backoff)
		if backoff *= 2; backoff > pol.BackoffCap {
			backoff = pol.BackoffCap
		}
	}
	if retried && ex.cfg.Trace != nil && p.Now() > start {
		// Mark retried transfers on the comm thread's own row (one past
		// the worker threads) so recovery is visible in the Gantt views.
		ex.cfg.Trace.Add(trace.Event{
			Node: node, Thread: ex.cfg.CoresPerNode, Seq: t.del.To.Seq,
			Class: "XFER-RETRY", Label: t.del.To.Ref.String(),
			Start: int64(start), End: int64(p.Now()),
		})
	}
}

// checkDone wakes every parked process once all tasks completed so the
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
