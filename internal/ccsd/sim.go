package ccsd

import (
	"fmt"

	"parsec/internal/cgp"
	"parsec/internal/cluster"
	"parsec/internal/fault"
	"parsec/internal/ga"
	"parsec/internal/molecule"
	"parsec/internal/sched"
	"parsec/internal/sim"
	"parsec/internal/simexec"
	"parsec/internal/tce"
	"parsec/internal/trace"
)

// SimBehaviors returns the executor behaviors that go beyond a plain cost
// charge. Only WRITE needs one: it is the critical section of §IV-A —
// lock the node-wide mutex, apply Corig += Csorted through
// ADD_HASH_BLOCK, unlock. The three write organizations differ exactly as
// the paper describes:
//
//   - parallel writes (v1, v3): each WRITE_C_i locks and accumulates one
//     sorted matrix — more lock/unlock system calls, more GA traffic;
//   - single write, parallel sorts (v2, v4): one WRITE_C merges its up to
//     four inputs locally, then performs a single accumulate under one
//     lock — a longer critical region;
//   - single write, single sort (v5): one input, one accumulate, with the
//     sorted matrix still hot in cache.
func SimBehaviors(w *tce.Workload, spec VariantSpec, ps []*chainPlan) map[string]simexec.Behavior {
	return simBehaviorsSpan(w, spec, ps, spec.MustShape().WriteSpan)
}

// simBehaviorsSpan is SimBehaviors with the Fig 8 write span: each WRITE
// instance accumulates only its 1/span slice.
func simBehaviorsSpan(w *tce.Workload, spec VariantSpec, ps []*chainPlan, span int) map[string]simexec.Behavior {
	if span < 1 {
		span = 1
	}
	return map[string]simexec.Behavior{
		"WRITE": func(ctx *simexec.TaskCtx) {
			p := ps[ctx.Inst.Ref.Args[0]]
			inputs := ctx.ActiveInputs()
			node := ctx.M.Nodes[ctx.Node]
			node.WriteMutex.Lock(ctx.P)
			sliceBytes := (p.cbytes + int64(span) - 1) / int64(span)
			if len(inputs) > 1 {
				// Merge the sorted matrices locally before the single
				// accumulate (Fig 6).
				ctx.M.MemOp(ctx.P, ctx.Node, int64(len(inputs)-1)*2*sliceBytes, true)
			}
			out := p.meta.Out
			ctx.GA.AddHashBlock(ctx.P, ctx.Node, ctx.Node,
				(out.Bytes()+int64(span)-1)/int64(span), out.Dims[0]*out.Dims[1]/span+1)
			node.WriteMutex.Unlock(ctx.P)
		},
	}
}

// SimRunConfig configures one simulated execution of a variant.
type SimRunConfig struct {
	CoresPerNode int
	Trace        *trace.Trace
	Horizon      sim.Time
	// SegmentHeight overrides the GEMM segment height (ablation).
	SegmentHeight int
	// Kernel selects the TCE kernel: "t2_7" (default) or "t1_2".
	Kernel string
	// Queues selects the intra-node scheduling structure (ablation of the
	// §IV-D work-stealing choice).
	Queues sched.QueueMode
	// WriteSpan > 1 splits output blocks across adjacent nodes (Fig 8).
	WriteSpan int
	// Faults, if non-nil, perturbs the run: the machine consults it for
	// straggler slowdowns and the executor for transfer and GA-service
	// faults. The caller keeps the handle to read the attribution ledger
	// afterwards.
	Faults *fault.Injector
	// InterNodeSteal enables the straggler-recovery re-dispatch path
	// (requires Queues == PerWorkerSteal).
	InterNodeSteal bool
	// Retry overrides the comm thread's loss-recovery policy (zero value
	// selects simexec.DefaultRetryPolicy).
	Retry simexec.RetryPolicy
}

// BaselineName is the series name of the original CGP code in Fig 9
// listings. It is not a variant: it has no PTG, only the simulated
// NXTVAL/GET/ACC loop of internal/cgp.
const BaselineName = "original"

// newSimMachine builds what every simulated run starts from: a fresh
// engine and machine (under inj, if non-nil), its Global Arrays layer,
// and the kernel's workload inspected with block owners taken from that
// layer's distribution — so one inspection is never tied to a machine
// size it was not located for.
func newSimMachine(sys *molecule.System, kernel string, mcfg cluster.Config, inj *fault.Injector) (*cluster.Machine, *ga.Sim, *tce.Workload, error) {
	k, err := tce.KernelByName(kernel, sys)
	if err != nil {
		return nil, nil, nil, err
	}
	m := cluster.New(sim.NewEngine(), mcfg)
	m.SetFaults(inj)
	gs := ga.NewSim(m)
	w := tce.Inspect(k, func(ref tce.BlockRef) int {
		return gs.Distribution().Owner(ref.Tensor, ref.Key)
	})
	return m, gs, w, nil
}

// RunSim executes one variant on a fresh simulated machine built from
// the cluster configuration, returning the simexec result (makespan,
// dataflow volumes, the GA GET/ACC tally, recovery counters).
func RunSim(sys *molecule.System, spec VariantSpec, mcfg cluster.Config, rc SimRunConfig) (simexec.Result, error) {
	if rc.CoresPerNode <= 0 {
		return simexec.Result{}, fmt.Errorf("ccsd: CoresPerNode = %d", rc.CoresPerNode)
	}
	m, gs, w, err := newSimMachine(sys, rc.Kernel, mcfg, rc.Faults)
	if err != nil {
		return simexec.Result{}, err
	}
	shape, err := EffectiveShape(spec, rc.SegmentHeight, rc.WriteSpan)
	if err != nil {
		return simexec.Result{}, err
	}
	ps := plans(w, shape)
	g := BuildGraph(w, spec, Options{Nodes: mcfg.Nodes, SegmentHeight: rc.SegmentHeight, WriteSpan: rc.WriteSpan})
	return simexec.Run(g, m, gs, simexec.Config{
		CoresPerNode:   rc.CoresPerNode,
		Policy:         spec.Policy(),
		Queues:         rc.Queues,
		Behaviors:      simBehaviorsSpan(w, spec, ps, shape.WriteSpan),
		Trace:          rc.Trace,
		Horizon:        rc.Horizon,
		Retry:          rc.Retry,
		InterNodeSteal: rc.InterNodeSteal,
	})
}

// RunSimBaseline executes the original CGP code path on a fresh
// simulated machine for the same system, for side-by-side Fig 9
// comparisons. Of rc it reads CoresPerNode (the ranks per node), Kernel,
// Trace and Faults; the rest shapes a PTG the baseline does not have.
// The CGP baseline has no comm threads — its GETs and ACCs are
// one-sided — so of the injected faults only stragglers and GA-service
// hiccups apply; its NXTVAL work distribution then rebalances around
// them on its own, which is the natural contrast to the PTG executors'
// re-dispatch.
func RunSimBaseline(sys *molecule.System, mcfg cluster.Config, rc SimRunConfig) (cgp.Result, error) {
	m, gs, w, err := newSimMachine(sys, rc.Kernel, mcfg, rc.Faults)
	if err != nil {
		return cgp.Result{}, err
	}
	return cgp.Run(w, m, gs, cgp.Config{RanksPerNode: rc.CoresPerNode, Trace: rc.Trace})
}

// RunSimSeries runs one Fig 9 series by name — BaselineName through
// RunSimBaseline, anything else as a variant name or flat recipe
// through RunSim — so drivers that list series side by side do not
// each carry that branch. The baseline reports in the same result type:
// its makespan and GA tally; it has no tasks, deliveries or recovery
// counters, and those fields stay zero.
func RunSimSeries(sys *molecule.System, name string, mcfg cluster.Config, rc SimRunConfig) (simexec.Result, error) {
	if name == BaselineName {
		res, err := RunSimBaseline(sys, mcfg, rc)
		return simexec.Result{
			Makespan: res.Makespan,
			Gets:     res.Gets, Adds: res.Adds,
			GetBytes: res.GetBytes, AddBytes: res.AddBytes,
		}, err
	}
	spec, err := VariantByName(name)
	if err != nil {
		return simexec.Result{}, err
	}
	return RunSim(sys, spec, mcfg, rc)
}
