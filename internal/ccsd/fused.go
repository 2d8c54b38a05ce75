package ccsd

import (
	"fmt"

	"parsec/internal/cluster"
	"parsec/internal/ga"
	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/sim"
	"parsec/internal/simexec"
	"parsec/internal/tce"
	"parsec/internal/tensor"
)

// This file implements the integration experiment promised by §III-B:
// "data will not need to be pulled and pushed into the GA at the
// beginning and end of each subroutine if all subroutines execute over
// PaRSEC. Instead, the different PaRSEC tasks that comprise a subroutine
// will pass their output to the tasks that comprise another subroutine."
//
// The second "subroutine" is the correlation-energy evaluation: one
// ENERGY task per output block contracting it with the weight tensor,
// followed by a reduction tree to a scalar. Two integrations are built:
//
//   - staged: icsd_t2_7 runs to completion and writes i0 to the Global
//     Array (Fig 3's re-integration); after a barrier, the energy stage
//     reads every block back from the GA.
//   - fused: one graph in which each chain's SORT forwards its block
//     directly to its ENERGY task — no GA round trip, no barrier.

// treeShape describes a binary reduction tree over m leaves.
type treeShape struct {
	top   int
	width []int
}

func newTreeShape(m int) treeShape {
	t := treeShape{width: []int{m}}
	for w := m; w > 1; {
		w = (w + 1) / 2
		t.width = append(t.width, w)
		t.top++
	}
	return t
}

// energyStage appends the ENERGY / EREDUCE / ESINK classes to a graph.
// source wires each ENERGY(L1) input: it is called with the flow and must
// attach either a task dependence (fused) or a data dependence (staged).
type energyStage struct {
	b      *builder
	tree   treeShape
	result *float64 // real execution: final scalar lands here
}

func (b *builder) buildEnergyStage(result *float64, fused bool) {
	es := &energyStage{b: b, tree: newTreeShape(b.numChains()), result: result}
	es.buildEnergy(fused)
	es.buildEReduce()
	es.buildESink()
}

func (es *energyStage) buildEnergy(fused bool) {
	b := es.b
	tc := b.g.Class("ENERGY")
	tc.Domain = func(emit func(ptg.Args)) {
		for l1 := range b.ps {
			emit(ptg.A1(l1))
		}
	}
	tc.Affinity = func(a ptg.Args) int { return b.chainNode(a[0]) }
	tc.Priority = b.priority(0)
	tc.Cost = func(a ptg.Args) ptg.Cost {
		return ptg.Cost{MemBytes: 2 * b.ps[a[0]].meta.Out.Bytes()}
	}
	tc.FlowBytes = func(a ptg.Args, flow string) int64 {
		if flow == "P" {
			return 8
		}
		return 0
	}
	s := tc.AddFlow("S", ptg.Read)
	if fused {
		// Direct dataflow from the producing SORT (v5 shape: one SORT per
		// chain whose output is the complete block).
		s.In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "SORT", Args: ptg.A1(a[0])}, "S"
		})
	} else {
		// Staged: the block comes back out of the Global Array.
		s.InData(nil, func(a ptg.Args) ptg.DataRef {
			out := b.ps[a[0]].meta.Out
			return ptg.DataRef{ID: out.String(), Node: b.ownerNode(b.ps[a[0]].meta.OutNode), Bytes: out.Bytes()}
		})
	}
	p := tc.AddFlow("P", ptg.Write)
	p.InNew(nil, func(a ptg.Args) int64 { return 8 })
	es.addTreeOut(p, 0, func(a ptg.Args) int { return a[0] })

	if b.store != nil {
		store := b.store
		weights := b.w.Weights()
		tc.Body = func(ctx *ptg.Ctx) {
			p := b.ps[ctx.Args[0]]
			var block *tensor.Tile4
			if fused {
				block = ctx.In[0].(*tensor.Tile4)
			} else {
				block = store.GetHashBlock(tce.TensorC, p.meta.Out.Key)
			}
			wt := weights.MustTile(p.meta.Out.Key)
			var sum float64
			for i, v := range block.Data {
				sum += v * wt.Data[i]
			}
			ctx.Out[1] = sum
		}
	}
}

// addTreeOut wires a producer's output flow into the energy reduction
// tree: leaf (lvl 0) or internal node outputs go to the parent EREDUCE,
// or to ESINK at the top. leafIdx maps args to the index at the given
// level.
func (es *energyStage) addTreeOut(f *ptg.Flow, lvl int, idx func(a ptg.Args) int) {
	tree := es.tree
	if tree.top == 0 {
		// Single chain: straight to the sink.
		f.Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "ESINK", Args: ptg.A1(0)}, "P"
		})
		return
	}
	f.Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
		i := idx(a)
		flow := "X"
		if i%2 == 1 {
			flow = "Y"
		}
		return ptg.TaskRef{Class: "EREDUCE", Args: ptg.A2(lvl+1, i/2)}, flow
	})
}

func (es *energyStage) buildEReduce() {
	b := es.b
	tree := es.tree
	tc := b.g.Class("EREDUCE")
	tc.Domain = func(emit func(ptg.Args)) {
		for lvl := 1; lvl <= tree.top; lvl++ {
			for i := 0; i < tree.width[lvl]; i++ {
				emit(ptg.A2(lvl, i))
			}
		}
	}
	tc.Affinity = func(a ptg.Args) int { return a[1] % b.nodes }
	tc.Cost = func(a ptg.Args) ptg.Cost { return ptg.Cost{MemBytes: 64} }
	tc.FlowBytes = func(a ptg.Args, flow string) int64 { return 8 }
	child := func(a ptg.Args, which int) (ptg.TaskRef, string) {
		lvl, i := a[0], a[1]
		c := 2*i + which
		if lvl == 1 {
			return ptg.TaskRef{Class: "ENERGY", Args: ptg.A1(c)}, "P"
		}
		return ptg.TaskRef{Class: "EREDUCE", Args: ptg.A2(lvl-1, c)}, "X"
	}
	x := tc.AddFlow("X", ptg.RW)
	x.In(nil, func(a ptg.Args) (ptg.TaskRef, string) { return child(a, 0) })
	y := tc.AddFlow("Y", ptg.Read)
	y.In(func(a ptg.Args) bool { return 2*a[1]+1 < tree.width[a[0]-1] },
		func(a ptg.Args) (ptg.TaskRef, string) { return child(a, 1) })
	x.Out(func(a ptg.Args) bool { return a[0] < tree.top },
		func(a ptg.Args) (ptg.TaskRef, string) {
			flow := "X"
			if a[1]%2 == 1 {
				flow = "Y"
			}
			return ptg.TaskRef{Class: "EREDUCE", Args: ptg.A2(a[0]+1, a[1]/2)}, flow
		})
	x.Out(func(a ptg.Args) bool { return a[0] == tree.top },
		func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "ESINK", Args: ptg.A1(0)}, "P"
		})
	if b.store != nil {
		tc.Body = func(ctx *ptg.Ctx) {
			sum := ctx.In[0].(float64)
			if ctx.In[1] != nil {
				sum += ctx.In[1].(float64)
			}
			ctx.Out[0] = sum
		}
	}
}

func (es *energyStage) buildESink() {
	b := es.b
	tc := b.g.Class("ESINK")
	tc.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)) }
	tc.Affinity = func(a ptg.Args) int { return 0 }
	tc.Cost = func(a ptg.Args) ptg.Cost { return ptg.Cost{MemBytes: 64} }
	tc.AddFlow("P", ptg.Read).In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
		if es.tree.top == 0 {
			return ptg.TaskRef{Class: "ENERGY", Args: ptg.A1(0)}, "P"
		}
		return ptg.TaskRef{Class: "EREDUCE", Args: ptg.A2(es.tree.top, 0)}, "X"
	})
	if b.store != nil {
		result := es.result
		tc.Body = func(ctx *ptg.Ctx) { *result = ctx.In[0].(float64) }
	}
}

// fusedPlan compiles the variant the fused graph builds on: v5, whose
// single merged SORT produces each chain's complete output block.
func fusedPlan(w *tce.Workload, nodes int) *CompiledPlan {
	spec, _ := VariantByName("v5")
	return CompileWorkload(w, spec, Options{Nodes: nodes})
}

// fused constructs the single fused graph: the v5 kernel whose SORT
// outputs feed the energy stage directly, with the WRITE tasks still
// persisting i0 to the Global Array.
func (p *CompiledPlan) fused(store ga.API, result *float64) *ptg.Graph {
	b := p.builder("icsd_t2_7+energy-fused", store)
	b.buildKernel()
	// Fan the SORT output out to the energy stage as well as the WRITE.
	sort := b.g.ClassByName("SORT")
	sFlow := sort.Flows[sort.MustFlowIndex("S")]
	sFlow.Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
		return ptg.TaskRef{Class: "ENERGY", Args: ptg.A1(a[0])}, "S"
	})
	b.buildEnergyStage(result, true)
	return b.g
}

// energyStaged constructs the standalone second-stage graph that reads
// every i0 block back from the Global Array (Fig 3's integration).
func (p *CompiledPlan) energyStaged(store ga.API, result *float64) *ptg.Graph {
	b := p.builder("energy-staged", store)
	b.buildEnergyStage(result, false)
	return b.g
}

// RunRealFused executes the fused graph with real arithmetic and returns
// the correlation energy, which must equal the reference functional.
func RunRealFused(w *tce.Workload, workers int) (float64, error) {
	var result float64
	g := fusedPlan(w, 1).fused(inputStore(w), &result)
	if _, err := runtime.Run(g, runtime.Config{Workers: workers}); err != nil {
		return 0, err
	}
	return result, nil
}

// FusionResult compares the two integrations on the simulated cluster.
type FusionResult struct {
	Staged      sim.Time // kernel makespan + energy-stage makespan
	StagedParts [2]sim.Time
	Fused       sim.Time
}

// String renders the comparison with the fused variant's relative gain.
func (f FusionResult) String() string {
	return fmt.Sprintf("staged=%v (kernel %v + energy %v)  fused=%v  gain=%.1f%%",
		f.Staged, f.StagedParts[0], f.StagedParts[1], f.Fused,
		100*(1-f.Fused.Seconds()/f.Staged.Seconds()))
}

// RunSimFusion executes both integrations on fresh simulated machines,
// all three runs off one compiled v5 plan.
func RunSimFusion(sys *molecule.System, mcfg cluster.Config, cores int) (FusionResult, error) {
	var out FusionResult
	w, err := InspectKernel(sys, "", mcfg.Nodes)
	if err != nil {
		return out, err
	}
	plan := fusedPlan(w, mcfg.Nodes)
	// Staged, stage 1: the kernel alone (v5), writing i0 to the GA.
	res1, err := plan.Simulate(mcfg, SimRunConfig{CoresPerNode: cores})
	if err != nil {
		return out, err
	}
	// Staged, stage 2: the energy graph reading i0 back from the GA.
	m, gs := newSimMachine(mcfg, nil)
	res2, err := simexec.Run(plan.energyStaged(nil, nil), m, gs, simexec.Config{
		CoresPerNode: cores,
		Behaviors:    stagedEnergyBehaviors(w, mcfg.Nodes),
	})
	if err != nil {
		return out, err
	}
	out.StagedParts = [2]sim.Time{res1.Makespan, res2.Makespan}
	out.Staged = res1.Makespan + res2.Makespan

	// Fused: one graph, one run.
	m, gs = newSimMachine(mcfg, nil)
	resF, err := simexec.Run(plan.fused(nil, nil), m, gs, simexec.Config{
		CoresPerNode: cores,
		Behaviors:    plan.simBehaviors(),
	})
	if err != nil {
		return out, err
	}
	out.Fused = resF.Makespan
	return out, nil
}

// stagedEnergyBehaviors makes each staged ENERGY task pull its block out
// of the Global Array before the contraction.
func stagedEnergyBehaviors(w *tce.Workload, nodes int) map[string]simexec.Behavior {
	return map[string]simexec.Behavior{
		"ENERGY": func(ctx *simexec.TaskCtx) {
			l1 := ctx.Inst.Ref.Args[0]
			out := w.Chains[l1].Out
			owner := w.Chains[l1].OutNode
			if owner < 0 {
				owner = 0
			}
			owner %= nodes
			ctx.GA.GetHashBlock(ctx.P, ctx.Node, owner, out.Bytes(), out.Dims[0]*out.Dims[1])
			ctx.M.MemOp(ctx.P, ctx.Node, 2*out.Bytes(), true)
		},
	}
}
