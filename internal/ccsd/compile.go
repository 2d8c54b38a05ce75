package ccsd

import (
	"sync"
	"time"

	"parsec/internal/ga"
	"parsec/internal/molecule"
	"parsec/internal/obsv"
	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/sched"
	"parsec/internal/tce"
	"parsec/internal/tensor"
	"parsec/internal/trace"
	"parsec/internal/xform"
)

// CompiledPlan is the reusable front half of the pipeline, and the one
// thing every executor consumes: the inspected workload plus the
// per-chain GEMM segmentation and reduction-tree shapes for one (system,
// recipe, node count) triple. Everything in it is a pure function of
// those inputs — no Global Arrays store, no scheduler state — so a plan
// compiled once can back any number of executions on any backend:
// Execute on the goroutine runtime, Simulate on the discrete-event
// cluster, and every rank of a netrun job (NewGraph over the rank's
// store). The service's content-keyed cache holds plans. The one lazily
// added piece, the task-graph skeleton, is a pure function of the same
// inputs and is resolved under a sync.Once on first use.
type CompiledPlan struct {
	// Sys is the inspected molecular system.
	Sys *molecule.System
	// Spec is the recipe the plan was compiled for.
	Spec VariantSpec
	// Nodes is the affinity modulus the workload was located and the
	// graph is distributed for; 1 is shared memory.
	Nodes int
	// Shape is the recipe's resolved, normalized plan shape. Everything
	// the chain plans and the graph skeleton depend on — besides the
	// workload and node count — is in here, which is why the service's
	// plan-cache key hashes its canonical string.
	Shape xform.Shape
	// Workload is the inspection result: chains, block shapes and
	// owners, FLOP counts, and the reference-energy machinery.
	Workload *tce.Workload
	// InspectTime and PlanTime record how long inspection and chain
	// planning took — the cost a cache hit avoids.
	InspectTime time.Duration
	PlanTime    time.Duration

	ps []*chainPlan
	// outCounts is how many AccOrdered contributions the WRITE tasks make
	// to each output block (writeCounts): what lets Execute finish a
	// block, and fold it into the energy, the moment its last WRITE lands.
	outCounts map[tensor.BlockKey]int

	// skel is the resolved structure of the plan's task graph, shared
	// read-only by every graph NewGraph returns; skelErr is why it could
	// not be resolved, in which case each run's tracker reports the same
	// error itself.
	skelOnce sync.Once
	skel     *ptg.Skeleton
	skelErr  error
}

// inspect is the one place a kernel is inspected for a machine size:
// block owners come from the Global Arrays placement every backend uses
// (ga.Distribution over nodes). A single node needs no locator — every
// block is local — and gets none, so a shared-memory plan's inspection
// pays no placement hashing and records owner -1, which the builders
// read as node 0.
func inspect(k *tce.Kernel, nodes int) *tce.Workload {
	if nodes <= 1 {
		return tce.Inspect(k, nil)
	}
	dist := ga.Distribution{Nodes: nodes}
	return tce.Inspect(k, func(ref tce.BlockRef) int { return dist.Owner(ref.Tensor, ref.Key) })
}

// InspectKernel inspects the named TCE kernel of sys ("t2_7", the
// default for "", or "t1_2") for a machine of the given node count. It
// is what Compile does for the T2_7 kernel, exposed for callers that
// compile several recipes over one inspection (CompileWorkload) or need
// the located workload without a graph (the CGP baseline).
func InspectKernel(sys *molecule.System, kernel string, nodes int) (*tce.Workload, error) {
	k, err := tce.KernelByName(kernel, sys)
	if err != nil {
		return nil, err
	}
	return inspect(k, nodes), nil
}

// Compile runs the inspection phase and chain planning for the T2_7
// kernel on sys, distributed over opts.Nodes, and returns the cacheable
// plan. It panics on a pass list that does not resolve; specs obtained
// from Variants, VariantByName, Recipe.Append or xform.FromShape always
// do.
func Compile(sys *molecule.System, spec VariantSpec, opts Options) *CompiledPlan {
	t0 := time.Now()
	w := inspect(tce.T2_7(sys), opts.Nodes)
	inspectTime := time.Since(t0)
	p := CompileWorkload(w, spec, opts)
	p.InspectTime = inspectTime
	return p
}

// CompileWorkload is Compile for a workload that is already inspected
// (InspectKernel): the other kernel, or one inspection shared by several
// recipes. InspectTime stays zero. opts.Store is ignored: stores are
// per-execution, not part of the plan.
func CompileWorkload(w *tce.Workload, spec VariantSpec, opts Options) *CompiledPlan {
	shape := spec.MustShape().Normalize()
	nodes := opts.Nodes
	if nodes <= 0 {
		nodes = 1
	}
	t0 := time.Now()
	ps := plans(w, shape)
	return &CompiledPlan{
		Sys:       w.Kernel.Sys,
		Spec:      spec,
		Nodes:     nodes,
		Shape:     shape,
		Workload:  w,
		PlanTime:  time.Since(t0),
		ps:        ps,
		outCounts: writeCounts(ps, shape),
	}
}

// writeCounts returns the number of AccOrdered contributions each output
// block receives from the WRITE tasks of a graph with the given chain
// plans and shape (buildWrite): one per WRITE_C_i with write fission;
// else one per input flow fed by a SORT — the chain's nsorts with sort
// fission, its one merged SORT without — in each of WriteSpan segments.
func writeCounts(ps []*chainPlan, shape xform.Shape) map[tensor.BlockKey]int {
	counts := make(map[tensor.BlockKey]int, len(ps))
	for _, p := range ps {
		n := shape.WriteSpan
		switch {
		case shape.WriteFission:
			n = p.nsorts
		case shape.SortFission:
			n *= p.nsorts
		}
		counts[p.meta.Out.Key] += n
	}
	return counts
}

// NewGraph binds the compiled plan to a store (nil for a graph that
// carries only the simulation cost model) and returns a fresh task graph
// for one execution. The class definitions are rebuilt — a handful of
// closures, because task bodies close over the per-job store — but the
// graph is not re-inspected: its instances and edges were resolved into
// a ptg.Skeleton the first time the plan was bound, and every graph
// returned here carries that skeleton, so the tracker of each run is a
// copy rather than an enumeration. The store changes bodies only, never
// structure, which is what makes one skeleton valid for all bindings —
// across executions, and across the ranks of one distributed run, which
// call this concurrently.
func (p *CompiledPlan) NewGraph(store ga.API) *ptg.Graph {
	g := p.unbound(store)
	p.bindSkeleton(g)
	return g
}

// unbound builds the plan's graph over store without a skeleton; its
// tracker inspects the graph itself.
func (p *CompiledPlan) unbound(store ga.API) *ptg.Graph { return p.build(store).g }

// build builds the plan's graph over store and returns its builder.
func (p *CompiledPlan) build(store ga.API) *builder {
	b := &builder{g: ptg.NewGraph(p.graphName()), store: store}
	b.point(p)
	b.buildKernel()
	b.armSorts()
	return b
}

// graphName names the plan's task graph.
func (p *CompiledPlan) graphName() string { return "icsd_t2_7-" + p.Spec.Name }

// bindSkeleton binds the plan's skeleton to g, a graph of the plan — or
// unbinds g when the skeleton cannot be resolved, so that g's tracker
// reports why.
func (p *CompiledPlan) bindSkeleton(g *ptg.Graph) {
	sk, _ := p.skeleton(g)
	g.Bind(sk)
}

// skeleton resolves the plan's graph structure, once. Structure does not
// depend on the store, so a caller that has just built a graph of the
// plan passes it and the first binding costs no second build.
func (p *CompiledPlan) skeleton(g *ptg.Graph) (*ptg.Skeleton, error) {
	p.skelOnce.Do(func() {
		if g == nil {
			g = p.unbound(nil)
		}
		p.skel, p.skelErr = ptg.NewSkeleton(g)
	})
	return p.skel, p.skelErr
}

// NumTasks returns the number of task instances in the plan's graph —
// what a distributed run's coordinator counts completions against.
func (p *CompiledPlan) NumTasks() (int, error) {
	sk, err := p.skeleton(nil)
	if err != nil {
		return 0, err
	}
	return sk.NumInstances(), nil
}

// Analyze replays the plan's DAG — the one every backend executes —
// charging each instance the duration dur reports: measured trace spans
// for critical-path attribution (internal/obsv), or a cost model for a
// static bound (internal/tune). Task bodies are never invoked, only the
// dataflow is.
func (p *CompiledPlan) Analyze(dur func(*ptg.Instance) int64) (ptg.Analysis, error) {
	return ptg.Analyze(p.NewGraph(nil), dur)
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
	// TaskDelay, when non-nil, stalls a worker before each task body —
	// runtime.Config.TaskDelay, the real-runtime analogue of a simulated
	// straggler. The energy must not move: fault recovery may reshuffle
	// who computes what, never what is computed.
	TaskDelay func(worker int, ref ptg.TaskRef) time.Duration
	// Cancel, when non-nil, aborts the run when it becomes readable;
	// the error returned satisfies errors.Is(err, runtime.ErrCanceled).
	Cancel <-chan struct{}
}

// Execute runs the compiled plan once on the goroutine runtime: on an
// execution context taken from the process's free list (context.go),
// whose store's inputs fill as the READ tasks reach them, it executes the
// plan's graph under the variant's ready-queue policy. The output never
// lands in the store: each block is final when its last WRITE lands, and
// is folded into the correlation energy in block-key order while the run
// goes on (tce.EnergyFold), then dropped. A run that ends with a block
// short of its contributions is an error. Concurrent Executes of the
// same plan are safe — the plan is read-only after Compile, and each run
// has a context to itself.
func (p *CompiledPlan) Execute(cfg ExecConfig) (RealResult, error) {
	return p.execute(cfg, false)
}

// ExecuteProfiled is Execute with span recording on, returning beside
// the result the run's obsv.Profile under the given name, computed
// straight from the spans (obsv.FromSpans): the per-job profile of the
// service, which never builds a trace. The spans themselves are the
// result's Report.Spans, a copy the caller owns.
func (p *CompiledPlan) ExecuteProfiled(name string, cfg ExecConfig) (RealResult, *obsv.Profile, error) {
	res, err := p.execute(cfg, true)
	if err != nil {
		return RealResult{}, nil, err
	}
	sk, _ := p.skeleton(nil) // resolved when the run bound its graph
	return res, obsv.FromSpans(name, [][]trace.Span{res.Report.Spans}, sk), nil
}

func (p *CompiledPlan) execute(cfg ExecConfig, record bool) (RealResult, error) {
	c := takeContext(p)
	defer giveContext(c)
	return c.execute(p, cfg, record)
}

// CreateOutput creates the plan's output tensor on store as a counted
// array (ga.Store.CreateCounted): a block is final when the last of the
// AccOrdered contributions the plan's WRITE tasks make to it lands, and
// is then folded into the returned energy and dropped. The fold's Energy
// is the run's correlation energy once every contribution has landed,
// and an error naming the first incomplete block otherwise. Execute and
// the distributed runtime's GA server both end a job this way.
func (p *CompiledPlan) CreateOutput(store *ga.Store) *tce.EnergyFold {
	fold := p.Workload.NewEnergyFold()
	store.CreateCounted(tce.TensorC, p.outCounts, fold.Put)
	return fold
}

// ReadBlock names the input block a READ instance of the plan's graph
// reads: its tensor and its number in that tensor's table
// (tce.InputTable), as the inspection resolved it. ok is false for any
// other instance.
func (p *CompiledPlan) ReadBlock(ref ptg.TaskRef) (name string, block int, ok bool) {
	var tbl *tce.InputTable
	switch ref.Class {
	case "READA":
		tbl, _ = p.Workload.Inputs()
	case "READB":
		_, tbl = p.Workload.Inputs()
	default:
		return "", 0, false
	}
	l1, l2 := ref.Args[0], ref.Args[1]
	if l1 < 0 || l1 >= len(p.ps) || l2 < 0 || l2 >= p.ps[l1].n {
		return "", 0, false
	}
	return tbl.Name, tbl.BlockOf(l1, l2), true
}

// run runs g, a graph of the plan, to completion on r, recording spans if
// asked.
func (p *CompiledPlan) run(r *runtime.Runner, g *ptg.Graph, cfg ExecConfig, record bool) (runtime.Report, error) {
	rcfg := runtime.Config{
		Workers:   cfg.Workers,
		Queues:    cfg.Queue,
		Policy:    p.Spec.Policy(),
		Cancel:    cfg.Cancel,
		TaskDelay: cfg.TaskDelay,
	}
	if !record {
		return r.Run(g, rcfg)
	}
	return r.RunRecorded(g, rcfg)
}
