// Package tune searches the recipe space for the graph shape with the
// best simulated makespan on a given machine. It is the autotuning loop
// the variant refactor buys: once v1–v5 are just points in a continuous
// space of transformation passes (segment height, reduction-tree arity,
// sort/write fission, write span, priority scheme), a search can walk
// that space with the discrete-event simulator as its oracle and
// rediscover — or beat — the paper's hand-derived §V progression without
// being told it.
//
// The search is a seeded steepest-descent hill climb: from the start
// recipe it enumerates every single-pass mutation of the current best
// shape, statically prunes candidates whose lower bound (the ParaGraph
// lesson: duration-weighted critical path and total-work/total-cores,
// whichever is larger) already exceeds the best makespan seen, simulates
// the survivors, and moves to the best improving neighbor until no
// neighbor improves or the evaluation budget runs out. Everything is
// deterministic for a fixed seed: the simulator's jitter stream is
// seeded by the cluster config, and the only randomness here is the
// seeded shuffle of neighbor visit order (which matters only when the
// budget truncates a round).
package tune

import (
	"fmt"
	"math/rand"

	"parsec/internal/ccsd"
	"parsec/internal/cluster"
	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/tce"
	"parsec/internal/xform"
)

// Config parameterizes one tuning run.
type Config struct {
	// Sys is the molecular system to tune for.
	Sys *molecule.System
	// Kernel names the TCE kernel ("t2_7" or "t1_2"); empty means t2_7.
	Kernel string
	// Cluster is the simulated machine; its Seed fixes the jitter stream.
	Cluster cluster.Config
	// CoresPerNode is the executor worker count per node.
	CoresPerNode int
	// Start is the recipe the climb starts from (e.g. "v1").
	Start string
	// Budget caps the number of simulator evaluations (pruned candidates
	// are analyzed statically but not simulated and do not count).
	// Budget < 1 means 64.
	Budget int
	// Seed drives the neighbor-order shuffle.
	Seed int64
}

// Eval is one scored (or pruned) candidate in the search history.
type Eval struct {
	// Round is the hill-climbing round the candidate was generated in
	// (round 0 is the start recipe itself).
	Round int `json:"round"`
	// Recipe is the candidate's canonical shape string.
	Recipe string `json:"recipe"`
	// BoundNs is the static lower bound on makespan: max(critical path,
	// total work / total cores) under uncontended machine rates.
	BoundNs int64 `json:"bound_ns"`
	// MakespanNs is the simulated makespan; zero when Pruned.
	MakespanNs int64 `json:"makespan_ns,omitempty"`
	// Pruned marks candidates skipped because BoundNs already met or
	// exceeded the best simulated makespan at the time.
	Pruned bool `json:"pruned,omitempty"`
}

// Result is the outcome of a tuning run. It contains no wall-clock
// timestamps so that a fixed-seed run serializes bit-identically.
type Result struct {
	// System, Kernel, Nodes, Cores identify the tuned configuration.
	System string `json:"system"`
	Kernel string `json:"kernel"`
	Nodes  int    `json:"nodes"`
	Cores  int    `json:"cores"`
	// Seed and Budget echo the search parameters.
	Seed   int64 `json:"seed"`
	Budget int   `json:"budget"`
	// Start is the canonical shape the climb started from, Best the
	// canonical shape it ended on.
	Start string `json:"start"`
	Best  string `json:"best"`
	// BestName is the paper name (v1..v5) whose shape equals Best, if
	// any — the search itself never consults the named recipes.
	BestName string `json:"best_name,omitempty"`
	// StartMakespanNs and BestMakespanNs are the simulated makespans at
	// the two endpoints.
	StartMakespanNs int64 `json:"start_makespan_ns"`
	BestMakespanNs  int64 `json:"best_makespan_ns"`
	// Evals counts simulator runs, Pruned the candidates rejected on
	// static bounds alone, Rounds the hill-climbing rounds completed.
	Evals  int `json:"evals"`
	Pruned int `json:"pruned"`
	Rounds int `json:"rounds"`
	// History lists every candidate in visit order.
	History []Eval `json:"history"`
}

// Run executes the search. The returned Result is deterministic for a
// fixed Config (including Cluster.Seed and Seed).
func Run(cfg Config) (*Result, error) {
	if cfg.Sys == nil {
		return nil, fmt.Errorf("tune: nil system")
	}
	if cfg.CoresPerNode < 1 {
		return nil, fmt.Errorf("tune: CoresPerNode = %d", cfg.CoresPerNode)
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	budget := cfg.Budget
	if budget < 1 {
		budget = 64
	}
	start := cfg.Start
	if start == "" {
		start = "v1"
	}
	startRecipe, err := xform.Parse(start)
	if err != nil {
		return nil, err
	}
	startShape, err := startRecipe.Shape()
	if err != nil {
		return nil, err
	}
	// One inspection, located for the machine, serves every candidate.
	w, err := ccsd.InspectKernel(cfg.Sys, cfg.Kernel, cfg.Cluster.Nodes)
	if err != nil {
		return nil, err
	}

	s := &searcher{
		cfg:     cfg,
		budget:  budget,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		visited: map[string]bool{},
		w:       w,
		res: &Result{
			System: cfg.Sys.Name,
			Kernel: kernelName(cfg.Kernel),
			Nodes:  cfg.Cluster.Nodes,
			Cores:  cfg.CoresPerNode,
			Seed:   cfg.Seed,
			Budget: budget,
			Start:  startShape.Canon(),
		},
	}

	best := startShape.Normalize()
	s.visited[best.Canon()] = true
	plan, err := s.compile(best)
	if err != nil {
		return nil, err
	}
	bound, err := s.staticBound(plan)
	if err != nil {
		return nil, err
	}
	bestMs, err := s.simulate(plan)
	if err != nil {
		return nil, err
	}
	s.res.History = append(s.res.History, Eval{Round: 0, Recipe: best.Canon(), BoundNs: bound, MakespanNs: bestMs})
	s.res.StartMakespanNs = bestMs

	for round := 1; s.evals < s.budget; round++ {
		nbs := neighbors(best)
		s.rng.Shuffle(len(nbs), func(i, j int) { nbs[i], nbs[j] = nbs[j], nbs[i] })
		moved := false
		for _, nb := range nbs {
			canon := nb.Canon()
			if s.visited[canon] {
				continue
			}
			s.visited[canon] = true
			if s.evals >= s.budget {
				break
			}
			ms, err := s.scoreOrPrune(nb, bestMs, round)
			if err != nil {
				return nil, err
			}
			if ms > 0 && ms < bestMs {
				best, bestMs, moved = nb, ms, true
			}
		}
		s.res.Rounds = round
		if !moved {
			break
		}
	}

	s.res.Best = best.Canon()
	s.res.BestMakespanNs = bestMs
	for _, r := range xform.Named() {
		if sh, err := r.Shape(); err == nil && sh.Canon() == s.res.Best {
			s.res.BestName = r.Name
			break
		}
	}
	return s.res, nil
}

// searcher carries the mutable state of one Run.
type searcher struct {
	cfg     Config
	budget  int
	evals   int
	rng     *rand.Rand
	visited map[string]bool
	res     *Result
	w       *tce.Workload
}

// scoreOrPrune statically bounds a candidate and either records a prune
// (bound cannot beat bestMs) or simulates it. Returns the simulated
// makespan, 0 when pruned.
func (s *searcher) scoreOrPrune(sh xform.Shape, bestMs int64, round int) (int64, error) {
	plan, err := s.compile(sh)
	if err != nil {
		return 0, err
	}
	bound, err := s.staticBound(plan)
	if err != nil {
		return 0, err
	}
	if bound >= bestMs {
		s.res.Pruned++
		s.res.History = append(s.res.History, Eval{Round: round, Recipe: sh.Canon(), BoundNs: bound, Pruned: true})
		return 0, nil
	}
	ms, err := s.simulate(plan)
	if err != nil {
		return 0, err
	}
	s.res.History = append(s.res.History, Eval{Round: round, Recipe: sh.Canon(), BoundNs: bound, MakespanNs: ms})
	return ms, nil
}

// compile plans a candidate shape over the run's one inspection; the
// static bound and the simulation of a candidate share the plan and its
// graph skeleton.
func (s *searcher) compile(sh xform.Shape) (*ccsd.CompiledPlan, error) {
	r, err := xform.FromShape(sh)
	if err != nil {
		return nil, err
	}
	return ccsd.CompileWorkload(s.w, r, ccsd.Options{Nodes: s.cfg.Cluster.Nodes}), nil
}

// simulate runs the discrete-event simulator on the candidate's graph
// and returns its makespan, charging one evaluation against the budget.
func (s *searcher) simulate(plan *ccsd.CompiledPlan) (int64, error) {
	res, err := plan.Simulate(s.cfg.Cluster, ccsd.SimRunConfig{CoresPerNode: s.cfg.CoresPerNode})
	if err != nil {
		return 0, err
	}
	s.evals++
	s.res.Evals = s.evals
	return int64(res.Makespan), nil
}

// staticBound replays the candidate's graph and computes the ParaGraph-
// style lower bound on any schedule's makespan: the duration-weighted
// critical path, and total work spread perfectly over every core,
// whichever is larger. Durations use uncontended machine rates (compute
// at CoreGFlops, memory at MemBWBytes with the GEMM traffic factor), so
// the bound is optimistic — safe to prune on, never to rank by.
func (s *searcher) staticBound(plan *ccsd.CompiledPlan) (int64, error) {
	mcfg := s.cfg.Cluster
	dur := func(in *ptg.Instance) int64 {
		if in.Class.Cost == nil {
			return 0
		}
		c := in.Class.Cost(in.Ref.Args)
		sec := float64(c.Flops)/(mcfg.CoreGFlops*1e9) +
			(float64(c.MemBytes)+mcfg.GemmMemTraffic*float64(c.GemmBytes))/mcfg.MemBWBytes
		return int64(sec * 1e9)
	}
	a, err := plan.Analyze(dur)
	if err != nil {
		return 0, err
	}
	bound := a.CriticalPath
	cores := int64(mcfg.Nodes * s.cfg.CoresPerNode)
	if perfect := (a.TotalWork + cores - 1) / cores; perfect > bound {
		bound = perfect
	}
	return bound, nil
}

// neighbors enumerates every shape reachable from s by one
// transformation pass, in a fixed order. Invalid applications (a pass
// precondition fails) are skipped; normalization collapses moot
// dimensions so equivalent spellings dedupe upstream.
func neighbors(s xform.Shape) []xform.Shape {
	var passes []xform.Pass
	if s.SegHeight == 0 {
		passes = append(passes, xform.SplitChain{Height: 1}, xform.SplitChain{Height: 2}, xform.SplitChain{Height: 4})
	} else {
		passes = append(passes,
			xform.SplitChain{Height: s.SegHeight + 1},
			xform.FuseSegments{Factor: 2},
			xform.FuseChain{},
		)
		if s.SegHeight > 1 {
			passes = append(passes, xform.SplitChain{Height: s.SegHeight - 1})
		}
		passes = append(passes, xform.ReshapeReduction{Arity: s.TreeArity + 1})
		if s.TreeArity > 2 {
			passes = append(passes, xform.ReshapeReduction{Arity: s.TreeArity - 1})
		}
	}
	if s.WriteFission {
		passes = append(passes, xform.FuseWrites{})
	} else if s.SortFission {
		passes = append(passes, xform.FissionWrites{}, xform.FuseSorts{})
	} else {
		passes = append(passes, xform.FissionSorts{})
	}
	if !s.WriteFission {
		passes = append(passes, xform.SpanWrites{Span: s.WriteSpan * 2})
		if s.WriteSpan > 1 {
			passes = append(passes, xform.SpanWrites{Span: s.WriteSpan / 2})
		}
	}
	if s.Prio == xform.PrioPaper {
		passes = append(passes, xform.Prioritize{Scheme: xform.PrioNone})
	} else {
		passes = append(passes, xform.Prioritize{Scheme: xform.PrioPaper})
	}

	var out []xform.Shape
	for _, p := range passes {
		nb, err := p.Apply(s)
		if err != nil {
			continue
		}
		nb = nb.Normalize()
		if err := nb.Validate(); err != nil {
			continue
		}
		out = append(out, nb)
	}
	return out
}

// kernelName normalizes the kernel label for reports.
func kernelName(k string) string {
	if k == "" {
		return "t2_7"
	}
	return k
}
