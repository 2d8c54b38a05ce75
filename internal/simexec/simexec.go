// Package simexec executes a Parameterized Task Graph on the simulated
// distributed-memory cluster. It reproduces the execution architecture of
// PaRSEC on a real machine (§II-B, §V):
//
//   - every node runs a fixed set of worker "threads" sharing one ready
//     queue — the paper's dynamic work stealing within a node (§IV-D);
//   - every task runs on its affinity node, as in the real runtimes;
//     no task migrates between nodes;
//   - every node runs one dedicated communication thread; tasks never
//     communicate directly, they express dataflow and the comm thread
//     issues the transfers (§V: "data transfer calls are issued by a
//     specialized communication thread that runs on a dedicated core").
//     It sends one payload at a time and delivers each once: an
//     injected fault can delay a transfer by a latency spike but never
//     lose it, as a live TCP link never does;
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
	"parsec/internal/ga"
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
	in        *ptg.Instance // the task in hand, nil between tasks
	start     sim.Time      // when the task in hand started
	ctx       TaskCtx       // its charge; ctx.ops[next:] is still to play
	next      int
}

// run carries the worker on from where it last waited: it plays the
// rest of the charge in hand, completes that task, and dispatches the
// next.
func (w *worker) run() {
	ex := w.ex
	for {
		for ; w.next < len(w.ctx.ops); w.next++ {
			if !ex.m.Step(&w.ctx.ops[w.next], &w.ev) {
				return
			}
		}
		if in := w.in; in != nil {
			if ex.spans != nil {
				flat := w.node*ex.cfg.CoresPerNode + w.wid
				ex.spans[flat] = append(ex.spans[flat], trace.Span{Seq: uint32(in.Seq), Worker: uint32(w.wid), Start: int64(w.start), End: int64(ex.m.Eng.Now())})
			}
			w.in = nil
			ex.complete(in)
			if ex.err != nil {
				return
			}
		}
		in := ex.dequeueFor(w.node, w.wid)
		if in == nil {
			if !ex.done {
				ex.nodes[w.node].workersIdle.Park(&w.ev)
			}
			return
		}
		if err := ex.tr.Start(in); err != nil {
			ex.fail(err)
			return
		}
		w.in, w.start = in, ex.m.Eng.Now()
		w.charge(in)
	}
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

// complete evaluates the finished task's dataflow: local deliveries are
// immediate, remote ones are queued on the communication thread of the
// task's node.
func (ex *executor) complete(in *ptg.Instance) {
	node := in.Node
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
// ev: it serves queued transfers in FIFO order, one at a time. Each
// transfer holds any latency spike the fault injector draws for it,
// then charges network latency and this node's NIC injection bandwidth
// for the payload, and delivers it. Nothing is lost on the way: like
// the real runtimes' TCP links, the simulated wire delivers every
// payload once.
type comm struct {
	ex    *executor
	ev    sim.Event
	node  int
	state commState
	t     transfer   // the transfer in hand
	wire  cluster.Op // its wire charge
}

type commState uint8

const (
	commIdle commState = iota // between transfers, or parked for one
	commWire                  // the spike held; the payload on the wire
)

// run carries the comm thread on from where it last waited.
func (c *comm) run() {
	ex := c.ex
	ns := ex.nodes[c.node]
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
			c.wire = cluster.TransferOp(c.node, c.t.del.To.Node, c.t.payload.Bytes)
			c.state = commWire
			if spike := ex.m.Faults().Transfer(c.node, c.t.del.To.Node); spike > 0 {
				ex.m.Eng.After(&c.ev, spike)
				return
			}
		case commWire:
			if !ex.m.Step(&c.wire, &c.ev) {
				return
			}
			ex.res.BytesSent += c.t.payload.Bytes
			ex.res.Transfers++
			sent := &ex.sentTo[c.t.del.To.Class.Index()]
			sent.bytes += c.t.payload.Bytes
			sent.any = true
			ex.deliver(c.t.del, c.t.payload)
			c.finish()
			if ex.err != nil {
				return
			}
		}
	}
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
