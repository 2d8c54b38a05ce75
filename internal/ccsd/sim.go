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
	"parsec/internal/trace"
)

// simBehaviors returns the executor behaviors that go beyond a plain cost
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
//
// Under a Fig 8 write span each WRITE instance accumulates only its
// 1/span slice.
func (p *CompiledPlan) simBehaviors() map[string]simexec.Behavior {
	ps, span := p.ps, p.Shape.WriteSpan
	return map[string]simexec.Behavior{
		"WRITE": func(ctx *simexec.TaskCtx) {
			cp := ps[ctx.Inst.Ref.Args[0]]
			inputs := ctx.ActiveInputs()
			ctx.Lock()
			sliceBytes := (cp.cbytes + int64(span) - 1) / int64(span)
			if len(inputs) > 1 {
				// Merge the sorted matrices locally before the single
				// accumulate (Fig 6).
				ctx.MemOp(int64(len(inputs)-1)*2*sliceBytes, true)
			}
			out := cp.meta.Out
			ctx.AddHashBlock(ctx.Node, (out.Bytes()+int64(span)-1)/int64(span), out.Dims[0]*out.Dims[1]/span+1)
			ctx.Unlock()
		},
	}
}

// SimRunConfig configures one simulated execution of a variant.
type SimRunConfig struct {
	CoresPerNode int
	Trace        *trace.Trace
	// Kernel selects the TCE kernel RunSim and RunSimSeries inspect:
	// "t2_7" (default) or "t1_2". A compiled plan already has its
	// workload, so Simulate does not read it.
	Kernel string
	// Queues selects the intra-node scheduling structure (ablation of the
	// §IV-D work-stealing choice).
	Queues sched.QueueMode
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
// engine and machine (under inj, if non-nil) and its Global Arrays
// layer, whose block placement is the ga.Distribution the workload was
// inspected with.
func newSimMachine(mcfg cluster.Config, inj *fault.Injector) (*cluster.Machine, *ga.Sim) {
	m := cluster.New(sim.NewEngine(), mcfg)
	m.SetFaults(inj)
	return m, ga.NewSim(m)
}

// Simulate executes the plan on a fresh simulated machine built from the
// cluster configuration, returning the simexec result (makespan,
// dataflow volumes, the GA GET/ACC tally, recovery counters). The plan
// must have been compiled for the machine's node count: block owners
// and task affinities are part of the plan.
func (p *CompiledPlan) Simulate(mcfg cluster.Config, rc SimRunConfig) (simexec.Result, error) {
	if rc.CoresPerNode <= 0 {
		return simexec.Result{}, fmt.Errorf("ccsd: CoresPerNode = %d", rc.CoresPerNode)
	}
	if mcfg.Nodes != p.Nodes {
		return simexec.Result{}, fmt.Errorf("ccsd: plan compiled for %d nodes simulated on %d", p.Nodes, mcfg.Nodes)
	}
	m, gs := newSimMachine(mcfg, rc.Faults)
	return simexec.Run(p.NewGraph(nil), m, gs, simexec.Config{
		CoresPerNode:   rc.CoresPerNode,
		Policy:         p.Spec.Policy(),
		Queues:         rc.Queues,
		Behaviors:      p.simBehaviors(),
		Trace:          rc.Trace,
		Retry:          rc.Retry,
		InterNodeSteal: rc.InterNodeSteal,
	})
}

// RunSim executes one variant on a fresh simulated machine: inspect the
// kernel for the machine's node count, compile, Simulate. Callers that
// run one system more than once (the tuner) keep the inspection and
// call those steps themselves.
func RunSim(sys *molecule.System, spec VariantSpec, mcfg cluster.Config, rc SimRunConfig) (simexec.Result, error) {
	w, err := InspectKernel(sys, rc.Kernel, mcfg.Nodes)
	if err != nil {
		return simexec.Result{}, err
	}
	if _, err := spec.Shape(); err != nil {
		return simexec.Result{}, err
	}
	return CompileWorkload(w, spec, Options{Nodes: mcfg.Nodes}).Simulate(mcfg, rc)
}

// RunSimSeries runs one Fig 9 series by name on a fresh simulated
// machine, so drivers that list series side by side do not each carry
// the branch: a variant name or flat recipe through RunSim, and
// BaselineName as the original CGP code path on the same system. Of rc
// the baseline reads CoresPerNode (the ranks per node), Kernel, Trace
// and Faults; the rest shapes a PTG it does not have. It has no comm
// threads — its GETs and ACCs are one-sided — so of the injected faults
// only stragglers and GA-service hiccups apply; its NXTVAL work
// distribution then rebalances around them on its own, which is the
// natural contrast to the PTG executors' re-dispatch. It reports in the
// same result type: its makespan and GA tally; it has no tasks,
// deliveries or recovery counters, and those fields stay zero.
func RunSimSeries(sys *molecule.System, name string, mcfg cluster.Config, rc SimRunConfig) (simexec.Result, error) {
	if name != BaselineName {
		spec, err := VariantByName(name)
		if err != nil {
			return simexec.Result{}, err
		}
		return RunSim(sys, spec, mcfg, rc)
	}
	w, err := InspectKernel(sys, rc.Kernel, mcfg.Nodes)
	if err != nil {
		return simexec.Result{}, err
	}
	m, gs := newSimMachine(mcfg, rc.Faults)
	res, err := cgp.Run(w, m, gs, cgp.Config{RanksPerNode: rc.CoresPerNode, Trace: rc.Trace})
	return simexec.Result{
		Makespan: res.Makespan,
		Gets:     res.Gets, Adds: res.Adds,
		GetBytes: res.GetBytes, AddBytes: res.AddBytes,
	}, err
}
