package ccsd

import (
	"sync"
	"time"

	"parsec/internal/ga"
	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/sched"
	"parsec/internal/tce"
	"parsec/internal/trace"
	"parsec/internal/xform"
)

// CompiledPlan is the reusable front half of the pipeline: the inspected
// workload plus the per-chain GEMM segmentation and reduction-tree
// shapes for one (system, variant, graph-shape) triple. Everything in it
// is a pure function of those inputs — no Global Arrays store, no
// scheduler state — so a plan compiled once can back any number of
// executions, which is what the service's content-keyed cache holds. The
// one lazily added piece, the task-graph skeleton, is a pure function of
// the same inputs and is built under a sync.Once on first use.
type CompiledPlan struct {
	// Sys is the inspected molecular system.
	Sys *molecule.System
	// Spec is the algorithmic variant the plan was compiled for.
	Spec VariantSpec
	// Opts is the graph shape (nodes, segment height, write span). The
	// Store field is always nil here; executions bind their own store.
	Opts Options
	// Shape is the resolved plan shape: the spec's recipe with the
	// Options overrides applied and normalized. Everything the chain
	// plans and the graph skeleton depend on — besides the workload and
	// node count — is in here, which is why the service's plan-cache key
	// hashes its canonical string.
	Shape xform.Shape
	// Workload is the inspection result: chains, block shapes, FLOP
	// counts, and the reference-energy machinery.
	Workload *tce.Workload
	// InspectTime and PlanTime record how long inspection and chain
	// planning took — the cost a cache hit avoids.
	InspectTime time.Duration
	PlanTime    time.Duration

	ps []*chainPlan

	// skel is the resolved structure of the plan's task graph, built from
	// the first graph NewGraph binds and shared read-only by every
	// execution after it; nil if that build failed, in which case each
	// run's tracker reports the error itself.
	skelOnce sync.Once
	skel     *ptg.Skeleton
}

// Compile runs the inspection phase and chain planning for the T2_7
// kernel on sys and returns the cacheable plan.
func Compile(sys *molecule.System, spec VariantSpec, opts Options) *CompiledPlan {
	t0 := time.Now()
	w := tce.Inspect(tce.T2_7(sys), nil)
	inspect := time.Since(t0)
	p := CompileWorkload(w, spec, opts)
	p.InspectTime = inspect
	return p
}

// CompileWorkload is Compile for a workload that is already inspected:
// the other kernel (tce.T1_2), or one inspection shared by several
// variants. InspectTime stays zero. opts.Store is ignored (and
// cleared): stores are per-execution, not part of the plan.
func CompileWorkload(w *tce.Workload, spec VariantSpec, opts Options) *CompiledPlan {
	opts.Store = nil
	shape := effectiveShape(spec, opts)
	t0 := time.Now()
	ps := plans(w, shape)
	return &CompiledPlan{
		Sys:      w.Kernel.Sys,
		Spec:     spec,
		Opts:     opts,
		Shape:    shape,
		Workload: w,
		PlanTime: time.Since(t0),
		ps:       ps,
	}
}

// NewGraph binds the compiled plan to a store and returns a fresh task
// graph for one execution. The class definitions are rebuilt — a handful
// of closures, because task bodies close over the per-job store — but
// the graph is not re-inspected: its instances and edges were resolved
// into a ptg.Skeleton the first time the plan was bound, and every graph
// returned here carries that skeleton, so the tracker of each run is a
// copy rather than an enumeration. The store changes bodies only, never
// structure, which is what makes one skeleton valid for all bindings.
func (p *CompiledPlan) NewGraph(store ga.API) *ptg.Graph {
	opts := p.Opts
	opts.Store = store
	g := buildGraphFrom(p.Workload, p.Spec.Name, p.Shape, opts, p.ps)
	p.skelOnce.Do(func() { p.skel, _ = ptg.NewSkeleton(g) })
	if p.skel != nil {
		g.Bind(p.skel)
	}
	return g
}

// NumChains returns the number of GEMM chains in the plan's workload.
func (p *CompiledPlan) NumChains() int { return len(p.ps) }

// FootprintBytes returns the estimated resident tensor footprint of one
// execution of the plan: the distinct blocks of both input tensors plus
// the distinct output blocks, straight from the inspection metadata.
// Per-chain C scratch is excluded — it is pooled and bounded by worker
// count, not workload size. The service's memory-based admission and
// its backend-selection threshold both key off this number.
func (p *CompiledPlan) FootprintBytes() int64 { return workloadFootprint(p.Workload) }

// EstimateFootprint inspects sys and returns the same footprint a plan
// compiled for it would report, without chain planning or graph
// construction. It is a pure function of the system (variant and graph
// shape do not change which blocks exist), so callers may memoize it by
// system identity.
func EstimateFootprint(sys *molecule.System) int64 {
	return workloadFootprint(tce.Inspect(tce.T2_7(sys), nil))
}

// workloadFootprint sums the distinct input and output blocks of a
// workload in bytes.
func workloadFootprint(w *tce.Workload) int64 {
	var total int64
	aName, bName := w.InputTensors()
	for _, name := range []string{aName, bName, tce.TensorC} {
		for _, ref := range w.UniqueBlocks(name) {
			total += ref.Bytes()
		}
	}
	return total
}

// ExecConfig controls one execution of a compiled plan.
type ExecConfig struct {
	// Workers is the goroutine count (0 = GOMAXPROCS).
	Workers int
	// Queue selects the ready-queue structure; the zero value is the
	// shared queue.
	Queue sched.QueueMode
	// Trace, when non-nil, records every completed task for obsv
	// profiling.
	Trace *trace.Trace
	// TaskDelay, when non-nil, stalls a worker before each task body —
	// runtime.Config.TaskDelay, the real-runtime analogue of a simulated
	// straggler. The energy must not move: fault recovery may reshuffle
	// who computes what, never what is computed.
	TaskDelay func(worker int, ref ptg.TaskRef) time.Duration
	// Cancel, when non-nil, aborts the run when it becomes readable;
	// the error returned satisfies errors.Is(err, runtime.ErrCanceled).
	Cancel <-chan struct{}
}

// Execute runs the compiled plan once on the goroutine runtime: it
// creates a fresh store whose inputs fill as the READ tasks reach them,
// binds the graph, executes it under the variant's ready-queue policy,
// and reduces the output array to the correlation energy. Concurrent
// Executes of the same plan are safe — the plan is read-only after
// Compile.
func (p *CompiledPlan) Execute(cfg ExecConfig) (RealResult, error) {
	store := inputStore(p.Workload)
	rep, err := p.runOn(store, cfg)
	if err != nil {
		return RealResult{}, err
	}
	return RealResult{Energy: p.Workload.Energy(store.Array(tce.TensorC)), Report: rep}, nil
}

// runOn binds the plan to store and runs the graph to completion.
func (p *CompiledPlan) runOn(store ga.API, cfg ExecConfig) (runtime.Report, error) {
	rcfg := runtime.Config{
		Workers:   cfg.Workers,
		Queues:    cfg.Queue,
		Policy:    p.Spec.Policy(),
		Cancel:    cfg.Cancel,
		TaskDelay: cfg.TaskDelay,
	}
	if cfg.Trace != nil {
		rcfg.Observer = runtime.TraceObserver(0, cfg.Trace)
	}
	return runtime.Run(p.NewGraph(store), rcfg)
}
