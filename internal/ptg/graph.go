// Package ptg implements the Parameterized Task Graph abstraction at the
// heart of PaRSEC (§II-B): task classes parameterized by integer indices,
// with symbolic, guarded dataflow edges between them. The definition is
// the compact, symbolic form; execution does not walk it. Like the
// paper's inspection phase (§III), the graph is inspected once — every
// domain, guard, affinity, priority and consumer closure evaluated, every
// edge resolved to an instance index — into a Skeleton of about 42 bytes
// per instance, and from then on completing a task is a walk over a slice
// of pre-resolved edges and an integer decrement per successor. A plan
// that runs many times (ccsd.CompiledPlan) builds the skeleton once and
// binds it to each execution's graph; concurrent runs share it read-only.
// Everything structural that can be wrong with a graph — a dangling edge,
// a duplicate instance, args outside int32 — is therefore reported by
// NewTracker, before the first task body runs.
//
// A task class corresponds to one block of the .jdf-like notation in the
// paper's Fig 1:
//
//	GEMM(L1, L2)
//	  L1 = 0..size_L1-1, L2 = 0..size_L2-1    -> Domain
//	  : descRR(L1)                             -> Affinity
//	  READ A <- A input_A(A_reader, L2, L1)    -> Flow{Read, Ins}
//	  RW   C <- (L2==0) ? C DFILL(L1) ...      -> Flow{RW, guarded Ins}
//	       -> (L2 < last) ? C GEMM(L1, L2+1)   -> guarded Outs
//	  ; priority                               -> Priority
//	  BODY { dgemm(...) }                      -> Body / Cost
//
// The same graph definition drives two executors: the shared-memory
// goroutine runtime (internal/runtime) executes Body with real data, and
// the distributed discrete-event executor (internal/simexec) charges Cost
// and FlowBytes against the simulated machine.
package ptg

import (
	"fmt"
	"sort"

	"parsec/internal/team"
	"parsec/internal/tensor/pool"
)

// MaxParams is the maximum number of task-class parameters.
const MaxParams = 3

// Args holds the parameter values of one task instance. Unused trailing
// entries are zero.
type Args [MaxParams]int

// A1 builds a one-parameter argument vector.
func A1(a int) Args { return Args{a, 0, 0} }

// A2 builds a two-parameter argument vector.
func A2(a, b int) Args { return Args{a, b, 0} }

// A3 builds a three-parameter argument vector.
func A3(a, b, c int) Args { return Args{a, b, c} }

// Mode is the access mode of a flow, as written in the PTG source.
type Mode int

const (
	Read  Mode = iota // READ: input only, forwarded unchanged
	RW                // RW: input consumed, modified, forwarded
	Write             // WRITE: no meaningful input data; produces output
)

// String renders the flow mode as its JDF keyword.
func (m Mode) String() string {
	switch m {
	case Read:
		return "READ"
	case RW:
		return "RW"
	default:
		return "WRITE"
	}
}

// TaskRef names one task instance: a class plus parameter values.
type TaskRef struct {
	Class string
	Args  Args
}

// String renders the canonical task label, e.g. "GEMM(1,2,3)" — the
// format traces and DAG replays key on.
func (r TaskRef) String() string {
	return fmt.Sprintf("%s(%d,%d,%d)", r.Class, r.Args[0], r.Args[1], r.Args[2])
}

// DataRef names a terminal datum outside the task graph (for this
// application: a Global Array block). Executors interpret it.
type DataRef struct {
	ID    string // unique identity, e.g. "i0(1,2,3,4)"
	Node  int    // owner node
	Bytes int64
}

// InDep is one guarded input alternative of a flow ("<-" line). Exactly
// one of Producer, Data, and New is set. For a given task instance the
// first alternative whose guard holds supplies the flow; if none holds,
// the flow is inactive for that instance.
type InDep struct {
	Guard    func(a Args) bool // nil means always
	Producer func(a Args) (TaskRef, string)
	Data     func(a Args) DataRef
	New      func(a Args) int64 // allocate a fresh buffer of this many bytes
}

// OutDep is one guarded output dependency of a flow ("->" line). Exactly
// one of Consumer and Data is set. All alternatives whose guards hold
// fire (a datum can fan out to several consumers).
type OutDep struct {
	Guard    func(a Args) bool
	Consumer func(a Args) (TaskRef, string)
	Data     func(a Args) DataRef
}

// Flow is one named dataflow of a task class.
type Flow struct {
	Name string
	Mode Mode
	Ins  []InDep
	Outs []OutDep
}

// Cost describes the simulated execution cost of a task instance.
type Cost struct {
	Flops    int64 // compute-bound work
	MemBytes int64 // memory-bound traffic through the node's shared bandwidth
	// GemmBytes is operand-footprint traffic of a GEMM kernel; the
	// executor scales it by the machine's GemmMemTraffic factor before
	// charging it (blocked DGEMM re-streams panels from DRAM).
	GemmBytes int64
	Warm      bool // traffic benefits from the cache-locality discount
}

// Ctx is the execution context handed to a task body by the real runtime.
// It is valid only for the duration of the call: the runtime reuses one
// Ctx and one Out buffer per worker, so a body must not retain ctx,
// ctx.In or ctx.Out past its return. The payloads are another matter:
// what a body leaves in Out is copied into the successors' inputs when
// the task completes and lives on there. An input payload is the body's
// to read until it returns, and not after: an executor may own its
// storage (a netrun rank returns a tile that came off the wire to the
// tile pool when its consumer completes). A body that itself releases an
// input — the one consumer of a pooled tile returning it — sets that In
// slot to nil, which is how such an executor knows not to release it
// again.
type Ctx struct {
	Args Args
	Node int
	// Seq is the executing instance's deterministic creation ordinal
	// (Instance.Seq): schedule-independent, so bodies can use it to tag
	// order-sensitive side effects such as ordered accumulations.
	Seq int
	// In holds the payload received on each flow (indexed like
	// TaskClass.Flows); nil for inactive flows and for New buffers of the
	// sim-only path.
	In []any
	// Out holds the payload forwarded to each flow's consumers. It is
	// prefilled with In; bodies overwrite entries for flows whose data
	// they produce or replace.
	Out []any

	// Pool is the executing worker's scratch shard for pooled tile and
	// panel buffers; nil when the executor provides none (bodies fall
	// back to the shared pool — tensor's *In helpers accept nil).
	Pool *pool.Local
	// Par is the intra-task parallelism handle of the executing runtime:
	// kernels that can split one task across idle workers (tensor.GemmP)
	// span through it. nil means run serially.
	Par team.Parallelism

	// err is the first failure recorded by Fail; the runtime surfaces it
	// as a task error after the body returns.
	err error
}

// InByName returns the input payload of the named flow.
func (c *Ctx) InByName(class *TaskClass, name string) any {
	return c.In[class.MustFlowIndex(name)]
}

// Fail records a task-body failure without panicking. Bodies call it
// when a fallible operation (e.g. a Global Arrays accumulate) reports
// an error; the runtime fails the task — and the run — cleanly after
// the body returns. Only the first failure is kept.
func (c *Ctx) Fail(err error) {
	if c.err == nil && err != nil {
		c.err = err
	}
}

// Err returns the first failure recorded by Fail, or nil.
func (c *Ctx) Err() error { return c.err }

// TaskClass is one parameterized task class of a PTG.
type TaskClass struct {
	Name string
	// Domain enumerates every valid parameter combination. The runtime
	// uses it to size internal tables; it corresponds to the parameter
	// range lines of the PTG source (which may consult inspection-phase
	// metadata, as in Fig 1's mtdata->size_L1).
	Domain func(emit func(Args))
	// Affinity maps an instance to the node that executes it (the
	// ": descRR(L1)" line). nil means node 0.
	Affinity func(a Args) int
	// Priority orders ready tasks (higher runs first); the "; expr" line.
	// nil means priority 0.
	Priority func(a Args) int64
	Flows    []*Flow
	// Body executes the task with real data (shared-memory runtime).
	Body func(ctx *Ctx)
	// Cost yields the simulated execution cost (distributed simulator).
	Cost func(a Args) Cost
	// FlowBytes yields the payload size of the named flow for simulated
	// transfers. nil means 0 bytes (metadata-only flow).
	FlowBytes func(a Args, flow string) int64
	// InBytes, when set, overrides the transfer size of payloads
	// *received* on the named flow — for consumers that take only a slice
	// of the producer's datum, like the per-node WRITE_C instances of
	// Fig 8 that each receive only the segment relevant to their node.
	InBytes func(a Args, flow string) int64

	flowIdx map[string]int
	idx     int // position in the graph's definition order
}

// AddFlow appends a flow to the class and returns it for chaining.
func (tc *TaskClass) AddFlow(name string, mode Mode) *Flow {
	if _, dup := tc.flowIdx[name]; dup {
		panic(fmt.Sprintf("ptg: duplicate flow %s.%s", tc.Name, name))
	}
	f := &Flow{Name: name, Mode: mode}
	tc.flowIdx[name] = len(tc.Flows)
	tc.Flows = append(tc.Flows, f)
	return f
}

// Index returns the class's position in its graph's definition order: a
// dense ordinal executors key per-class tables by.
func (tc *TaskClass) Index() int { return tc.idx }

// FlowIndex returns the index of the named flow and whether it exists.
func (tc *TaskClass) FlowIndex(name string) (int, bool) {
	i, ok := tc.flowIdx[name]
	return i, ok
}

// MustFlowIndex returns the index of the named flow, panicking if absent.
func (tc *TaskClass) MustFlowIndex(name string) int {
	i, ok := tc.flowIdx[name]
	if !ok {
		panic(fmt.Sprintf("ptg: no flow %s.%s", tc.Name, name))
	}
	return i
}

// In adds a guarded input alternative supplied by another task's flow.
func (f *Flow) In(guard func(a Args) bool, producer func(a Args) (TaskRef, string)) *Flow {
	f.Ins = append(f.Ins, InDep{Guard: guard, Producer: producer})
	return f
}

// InData adds a guarded input alternative supplied by a terminal datum.
func (f *Flow) InData(guard func(a Args) bool, data func(a Args) DataRef) *Flow {
	f.Ins = append(f.Ins, InDep{Guard: guard, Data: data})
	return f
}

// InNew adds a guarded input alternative that allocates a fresh buffer.
func (f *Flow) InNew(guard func(a Args) bool, size func(a Args) int64) *Flow {
	f.Ins = append(f.Ins, InDep{Guard: guard, New: size})
	return f
}

// Out adds a guarded output dependency to another task's flow.
func (f *Flow) Out(guard func(a Args) bool, consumer func(a Args) (TaskRef, string)) *Flow {
	f.Outs = append(f.Outs, OutDep{Guard: guard, Consumer: consumer})
	return f
}

// OutData adds a guarded terminal output dependency.
func (f *Flow) OutData(guard func(a Args) bool, data func(a Args) DataRef) *Flow {
	f.Outs = append(f.Outs, OutDep{Guard: guard, Data: data})
	return f
}

// Graph is a Parameterized Task Graph: a set of task classes.
type Graph struct {
	Name    string
	classes map[string]*TaskClass
	order   []*TaskClass
	skel    *Skeleton // bound by Bind; nil means NewTracker builds its own
}

// NewGraph returns an empty graph.
func NewGraph(name string) *Graph {
	return &Graph{Name: name, classes: make(map[string]*TaskClass)}
}

// Class adds a new task class with the given name.
func (g *Graph) Class(name string) *TaskClass {
	if _, dup := g.classes[name]; dup {
		panic(fmt.Sprintf("ptg: duplicate class %s", name))
	}
	tc := &TaskClass{Name: name, flowIdx: make(map[string]int), idx: len(g.order)}
	g.classes[name] = tc
	g.order = append(g.order, tc)
	return tc
}

// Bind attaches a skeleton built from a structurally identical graph —
// same classes, flows, domains, guards, affinities and priorities, as two
// bindings of one compiled plan to different stores are by construction
// — so NewTracker copies the resolved structure instead of re-inspecting
// the graph. The skeleton is only read, and may be bound to any number of
// graphs executing concurrently. NewTracker refuses a skeleton whose
// class or flow layout differs from the graph's.
func (g *Graph) Bind(s *Skeleton) { g.skel = s }

// Skeleton returns the graph's resolved structure: the bound one, or a
// private one built now. It is the Seq -> TaskRef table a recorded run's
// spans are labelled from.
func (g *Graph) Skeleton() (*Skeleton, error) {
	if g.skel != nil {
		return g.skel, nil
	}
	return NewSkeleton(g)
}

// ClassByName returns the named class, or nil.
func (g *Graph) ClassByName(name string) *TaskClass { return g.classes[name] }

// Classes returns the task classes in definition order.
func (g *Graph) Classes() []*TaskClass { return g.order }

// Validate checks structural well-formedness: domains exist, flows have
// at most one unguarded input alternative (which must be last), and every
// referenced class and flow name resolves. It does not instantiate tasks.
func (g *Graph) Validate() error {
	for _, tc := range g.order {
		if tc.Domain == nil {
			return fmt.Errorf("ptg: class %s has no Domain", tc.Name)
		}
		for _, f := range tc.Flows {
			for i, in := range f.Ins {
				n := 0
				if in.Producer != nil {
					n++
				}
				if in.Data != nil {
					n++
				}
				if in.New != nil {
					n++
				}
				if n != 1 {
					return fmt.Errorf("ptg: %s.%s input %d must have exactly one source", tc.Name, f.Name, i)
				}
				if in.Guard == nil && i != len(f.Ins)-1 {
					return fmt.Errorf("ptg: %s.%s input %d is unguarded but not last", tc.Name, f.Name, i)
				}
			}
			for i, out := range f.Outs {
				n := 0
				if out.Consumer != nil {
					n++
				}
				if out.Data != nil {
					n++
				}
				if n != 1 {
					return fmt.Errorf("ptg: %s.%s output %d must have exactly one sink", tc.Name, f.Name, i)
				}
			}
		}
	}
	return nil
}

// Enumerate lists every task instance of every class, in deterministic
// order (class definition order, then domain emission order).
func (g *Graph) Enumerate() []TaskRef {
	var refs []TaskRef
	for _, tc := range g.order {
		tc.Domain(func(a Args) {
			refs = append(refs, TaskRef{Class: tc.Name, Args: a})
		})
	}
	return refs
}

// CountTasks returns the number of instances per class, keyed by class
// name, plus the total.
func (g *Graph) CountTasks() (map[string]int, int) {
	counts := make(map[string]int, len(g.order))
	total := 0
	for _, tc := range g.order {
		n := 0
		tc.Domain(func(Args) { n++ })
		counts[tc.Name] = n
		total += n
	}
	return counts, total
}

// ClassNames returns the class names in definition order.
func (g *Graph) ClassNames() []string {
	names := make([]string, len(g.order))
	for i, tc := range g.order {
		names[i] = tc.Name
	}
	return names
}

// SortRefs orders task references deterministically: by class definition
// order, then by args lexicographically.
func (g *Graph) SortRefs(refs []TaskRef) {
	rank := make(map[string]int, len(g.order))
	for i, tc := range g.order {
		rank[tc.Name] = i
	}
	sort.Slice(refs, func(i, j int) bool {
		ri, rj := refs[i], refs[j]
		if rank[ri.Class] != rank[rj.Class] {
			return rank[ri.Class] < rank[rj.Class]
		}
		for k := 0; k < MaxParams; k++ {
			if ri.Args[k] != rj.Args[k] {
				return ri.Args[k] < rj.Args[k]
			}
		}
		return false
	})
}
