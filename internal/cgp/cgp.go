// Package cgp executes a TCE workload the way the original NWChem code
// does (§III-A): Coarse Grain Parallelism over Global Arrays. Each MPI
// rank repeatedly acquires a whole chain of GEMMs through the NXTVAL
// shared counter (global work stealing), and for every GEMM issues a
// blocking GET_HASH_BLOCK for each input immediately before calling the
// kernel — so communication is interleaved with, but never overlapped
// with, computation (Fig 12/13). Chain output is sorted and accumulated
// with SORT_4 + ADD_HASH_BLOCK, serially on the same rank. Work is
// divided into levels with an explicit synchronization between them.
package cgp

import (
	"fmt"

	"parsec/internal/cluster"
	"parsec/internal/ga"
	"parsec/internal/sim"
	"parsec/internal/tce"
	"parsec/internal/trace"
)

// Config controls a baseline run.
type Config struct {
	// RanksPerNode is the number of MPI ranks per node (the paper's
	// cores/node axis in Fig 9).
	RanksPerNode int
	// Levels splits the chains into this many contiguous work levels with
	// a barrier and counter reset between them (the original T2 code uses
	// seven across its subroutines; a single subroutine region is one).
	Levels int
	// Trace, if non-nil, receives GET / GEMM / SORT / ADD events.
	Trace *trace.Trace
	// Horizon aborts the simulation after this much virtual time.
	Horizon sim.Time
}

// Result summarizes a baseline run.
type Result struct {
	Makespan   sim.Time
	Chains     int
	Gets, Adds int64
	// GetBytes and AddBytes are the payload volumes behind Gets and Adds
	// (the GET-vs-ACC communication split of the profile report).
	GetBytes, AddBytes int64
	ChainsByRank       map[string]int // "node/rank" -> chains executed
}

// String summarizes the run in one line.
func (r Result) String() string {
	return fmt.Sprintf("makespan=%v chains=%d gets=%d adds=%d", r.Makespan, r.Chains, r.Gets, r.Adds)
}

// Run executes the workload on the machine and returns the result.
func Run(w *tce.Workload, m *cluster.Machine, gs *ga.Sim, cfg Config) (Result, error) {
	if cfg.RanksPerNode <= 0 {
		return Result{}, fmt.Errorf("cgp: RanksPerNode = %d", cfg.RanksPerNode)
	}
	levels := cfg.Levels
	if levels <= 0 {
		levels = 1
	}
	if levels > len(w.Chains) {
		levels = len(w.Chains)
	}
	// Contiguous level partition.
	bounds := make([]int, levels+1)
	for i := 0; i <= levels; i++ {
		bounds[i] = i * len(w.Chains) / levels
	}

	totalRanks := m.Cfg.Nodes * cfg.RanksPerNode
	barrier := sim.NewBarrier(m.Eng, totalRanks)
	res := Result{Chains: len(w.Chains), ChainsByRank: make(map[string]int)}

	for node := 0; node < m.Cfg.Nodes; node++ {
		for rank := 0; rank < cfg.RanksPerNode; rank++ {
			node, rank := node, rank
			m.Eng.Go(fmt.Sprintf("n%d.r%d", node, rank), func(p *sim.Proc) {
				runRank(p, w, m, gs, cfg, node, rank, bounds, barrier, &res)
			})
		}
	}
	end, err := m.Eng.Run(cfg.Horizon)
	if err != nil {
		return Result{}, fmt.Errorf("cgp: %w", err)
	}
	res.Makespan = end
	res.Gets, res.Adds = gs.Stats()
	res.GetBytes, res.AddBytes = gs.ByteStats()
	return res, nil
}

func runRank(p *sim.Proc, w *tce.Workload, m *cluster.Machine, gs *ga.Sim,
	cfg Config, node, rank int, bounds []int, barrier *sim.Barrier, res *Result) {
	record := func(class, label string, start sim.Time) {
		if cfg.Trace != nil {
			cfg.Trace.Add(trace.Event{
				Node: node, Thread: rank,
				Class: class, Label: label,
				Start: int64(start), End: int64(p.Now()),
			})
		}
	}
	rankKey := fmt.Sprintf("%d/%d", node, rank)
	for lvl := 0; lvl+1 < len(bounds); lvl++ {
		base, limit := bounds[lvl], bounds[lvl+1]
		for {
			// Global work stealing: one remote atomic per unit of work
			// (a whole chain), §IV-D.
			ticket := gs.NxtVal(p)
			idx := base + int(ticket)
			if idx >= limit {
				break
			}
			res.ChainsByRank[rankKey]++
			executeChain(p, w.Chains[idx], m, gs, node, record)
		}
		// Explicit synchronization between work levels (§III-A), after
		// which the shared counter is rewound for the next level.
		barrier.Arrive(p)
		if rank == 0 && node == 0 {
			gs.ResetNxtVal()
		}
		barrier.Arrive(p)
	}
}

// owner maps an inspection's recorded block owner to a node. A one-node
// inspection has no locator and records -1: every block is on node 0,
// the convention the PTG builders read it by too.
func owner(recorded int) int {
	if recorded < 0 {
		return 0
	}
	return recorded
}

// executeChain runs one chain exactly as the generated Fortran does:
// DFILL, then for each GEMM a blocking GET of A and B followed by the
// kernel, then the active SORT_4 + ADD_HASH_BLOCK pairs, all serially.
func executeChain(p *sim.Proc, c *tce.ChainMeta, m *cluster.Machine, gs *ga.Sim,
	node int, record func(class, label string, start sim.Time)) {
	cb := c.CBytes()
	// DFILL: zero the local C buffer (MA_PUSH_GET + dfill).
	t0 := p.Now()
	m.MemOp(p, node, cb, false)
	record("DFILL", fmt.Sprintf("DFILL(%d)", c.ID), t0)

	for _, g := range c.Gemms {
		// GET_HASH_BLOCK immediately before the GEMM: "there is no
		// computation in the code between the point where the data
		// transfer starts and the point where the data is needed" (§V).
		t0 = p.Now()
		gs.GetHashBlock(p, node, owner(g.ANode), g.Op.A.Bytes(), g.Op.A.Dims[0]*g.Op.A.Dims[1])
		record("READA", fmt.Sprintf("GET-A(%d,%d)", c.ID, g.Op.Iter.H7), t0)
		t0 = p.Now()
		gs.GetHashBlock(p, node, owner(g.BNode), g.Op.B.Bytes(), g.Op.B.Dims[0]*g.Op.B.Dims[1])
		record("READB", fmt.Sprintf("GET-B(%d,%d)", c.ID, g.Op.Iter.H7), t0)

		t0 = p.Now()
		m.Gemm(p, node, g.Op.Flops(), g.Op.A.Bytes()+g.Op.B.Bytes()+cb)
		record("GEMM", fmt.Sprintf("GEMM(%d,%d)", c.ID, g.Op.Iter.H7), t0)
	}

	for _, s := range c.Sorts {
		t0 = p.Now()
		m.MemOp(p, node, 2*cb, true)
		record("SORT", fmt.Sprintf("SORT(%d,%d)", c.ID, s.Branch), t0)
		t0 = p.Now()
		gs.AddHashBlock(p, node, owner(c.OutNode), c.Out.Bytes(), c.Out.Dims[0]*c.Out.Dims[1])
		record("WRITE", fmt.Sprintf("ADD(%d,%d)", c.ID, s.Branch), t0)
	}
}
