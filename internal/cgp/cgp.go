// Package cgp executes a TCE workload the way the original NWChem code
// does (§III-A): Coarse Grain Parallelism over Global Arrays. Each MPI
// rank repeatedly acquires a whole chain of GEMMs through the NXTVAL
// shared counter (global work stealing), and for every GEMM issues a
// blocking GET_HASH_BLOCK for each input immediately before calling the
// kernel — so communication is interleaved with, but never overlapped
// with, computation (Fig 12/13). Chain output is sorted and accumulated
// with SORT_4 + ADD_HASH_BLOCK, serially on the same rank. Work is
// divided into levels with an explicit synchronization between them.
//
// A rank is a callback actor on the simulator (see package sim): one
// owned event carries it from state to state, through the NXTVAL
// counter, each step's cluster.Op and the level barrier. Run fails if a
// rank never finishes.
package cgp

import (
	"fmt"

	"parsec/internal/cluster"
	"parsec/internal/ga"
	"parsec/internal/ptg"
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
	// Trace, if non-nil, receives one span per step a rank executes —
	// DFILL, the GETs of A and B (READA, READB), GEMM, SORT and the ADD
	// (WRITE) — with the rank as the worker, named by a skeleton of the
	// run's steps (newSteps).
	Trace *trace.Trace
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

	res := Result{Chains: len(w.Chains), ChainsByRank: make(map[string]int)}
	sh := &shared{w: w, m: m, gs: gs, bounds: bounds, res: &res,
		barrier: sim.NewBarrier(m.Eng, m.Cfg.Nodes*cfg.RanksPerNode)}
	if cfg.Trace != nil {
		var err error
		if sh.st, err = newSteps(w, m.Cfg.Nodes, cfg.RanksPerNode); err != nil {
			return Result{}, err
		}
	}

	ranks := make([]rank, m.Cfg.Nodes*cfg.RanksPerNode)
	for i := range ranks {
		r := &ranks[i]
		r.shared, r.node, r.id = sh, i/cfg.RanksPerNode, i%cfg.RanksPerNode
		r.key = fmt.Sprintf("%d/%d", r.node, r.id)
		r.ev.Bind(r.resume)
		m.Eng.After(&r.ev, 0)
	}
	end, err := m.Eng.Run(0)
	if st := sh.st; st != nil {
		for i, spans := range st.spans {
			cfg.Trace.AddSpans(i/st.perNode, spans, st.sk)
		}
	}
	if err != nil {
		return Result{}, fmt.Errorf("cgp: %w", err)
	}
	// The engine stops when its queue runs dry or it is stopped; a rank
	// still waiting then never finishes.
	var stuck []string
	for i := range ranks {
		if r := &ranks[i]; r.state != finished {
			stuck = append(stuck, fmt.Sprintf("n%d.r%d", r.node, r.id))
		}
	}
	if len(stuck) > 0 {
		return Result{}, fmt.Errorf("cgp: %d rank(s) never finished: %v", len(stuck), stuck)
	}
	res.Makespan = end
	res.Gets, res.Adds = gs.Stats()
	res.GetBytes, res.AddBytes = gs.ByteStats()
	return res, nil
}

// shared is what the ranks of one Run share.
type shared struct {
	w       *tce.Workload
	m       *cluster.Machine
	gs      *ga.Sim
	st      *steps // nil when untraced
	bounds  []int  // level l is chains [bounds[l], bounds[l+1])
	barrier *sim.Barrier
	res     *Result
}

// rank is one MPI rank as a callback actor. Its one event carries it
// through the loop of §III-A: take a ticket from NXTVAL, run the chain it
// names step by step, and at the end of a level meet the other ranks at
// the barrier twice, the first rank rewinding the counter in between.
type rank struct {
	*shared
	ev       sim.Event
	node, id int
	key      string // "node/rank", the ChainsByRank key
	state    rankState
	lvl      int
	chain    *tce.ChainMeta
	step     int        // the chain step being played, numbered as in startStep
	class, i int        // its trace class, and its index among the chain's steps of that class
	op       cluster.Op // its charge
	t0       sim.Time   // when it started
}

// rankState is what a rank does when its event fires next.
type rankState uint8

const (
	hiccup    rankState = iota // finish past the last level, or hold a fault-injected NXTVAL delay
	request                    // queue for the NXTVAL server
	roundTrip                  // hold the atomic's round trip
	ticket                     // take the ticket: a chain, or the level's end
	play                       // step the current chain step's charge
	arrive                     // the barrier before the counter rewind
	rewind                     // rewind the counter, then the barrier after
	finished
)

// resume carries the rank on from its state until it has to wait or
// finishes.
func (r *rank) resume() {
	ev, eng := &r.ev, r.m.Eng
	for {
		switch r.state {
		case hiccup:
			if r.lvl+1 == len(r.bounds) {
				r.state = finished // past the last level
				return
			}
			// Global work stealing: one remote atomic per unit of work
			// (a whole chain), §IV-D.
			r.state = request
			if d := r.m.Faults().NxtValHiccup(); d > 0 {
				eng.After(ev, d)
				return
			}
		case request:
			r.state = roundTrip
			if r.gs.NxtVal().Request(ev) {
				return
			}
		case roundTrip:
			r.state = ticket
			if rtt := r.gs.NxtVal().RTT; rtt > 0 {
				eng.After(ev, rtt)
				return
			}
		case ticket:
			idx := r.bounds[r.lvl] + int(r.gs.NxtVal().Take())
			if idx >= r.bounds[r.lvl+1] {
				r.state = arrive
				continue
			}
			r.res.ChainsByRank[r.key]++
			r.chain, r.step = r.w.Chains[idx], 0
			r.startStep()
		case play:
			if !r.m.Step(&r.op, ev) {
				return
			}
			if r.st != nil {
				r.st.record(r.node, r.id, r.class, r.chain.ID, r.i, r.t0, eng.Now())
			}
			r.step++
			r.startStep()
		case arrive:
			// Explicit synchronization between work levels (§III-A),
			// after which the shared counter is rewound for the next
			// level.
			r.state = rewind
			if r.barrier.Arrive(ev) {
				return
			}
		case rewind:
			if r.node == 0 && r.id == 0 {
				r.gs.ResetNxtVal()
			}
			r.state, r.lvl = hiccup, r.lvl+1
			if r.barrier.Arrive(ev) {
				return
			}
		case finished:
			return
		}
	}
}

// The classes of the steps a rank records, in skeleton order.
const (
	dfill = iota
	readA
	readB
	gemm
	sortC
	write
	nclasses
)

var classNames = [nclasses]string{"DFILL", "READA", "READB", "GEMM", "SORT", "WRITE"}

// steps records a traced run: one span buffer per rank, and the
// skeleton that names what they hold — one instance per (class, chain,
// step), where a step counts a chain's GEMMs (DFILL has one, READA,
// READB and GEMM one per GEMM) or its sorts (SORT and WRITE one per
// sort). Instance (chain, step) of a class is CLASS(chain,step,0), and
// its Seq is seq0[class][chain] + step.
type steps struct {
	sk      *ptg.Skeleton
	seq0    [nclasses][]int // per chain: the Seq of its step 0 in the class
	spans   [][]trace.Span  // by node*perNode + rank
	perNode int
}

// newSteps builds the skeleton of w's steps, and a buffer per rank.
func newSteps(w *tce.Workload, nodes, perNode int) (*steps, error) {
	st := &steps{spans: make([][]trace.Span, nodes*perNode), perNode: perNode}
	g := ptg.NewGraph("cgp")
	n := 0
	for class, name := range classNames {
		st.seq0[class] = make([]int, len(w.Chains))
		count := func(c *tce.ChainMeta) int {
			switch class {
			case dfill:
				return 1
			case sortC, write:
				return len(c.Sorts)
			}
			return len(c.Gemms)
		}
		for _, c := range w.Chains {
			st.seq0[class][c.ID] = n
			n += count(c)
		}
		g.Class(name).Domain = func(emit func(ptg.Args)) {
			for _, c := range w.Chains {
				for i := 0; i < count(c); i++ {
					emit(ptg.A2(c.ID, i))
				}
			}
		}
	}
	var err error
	st.sk, err = ptg.NewSkeleton(g)
	return st, err
}

// record appends one step's span to the buffer of a node's rank.
func (st *steps) record(node, rank, class, chain, step int, start, end sim.Time) {
	i := node*st.perNode + rank
	st.spans[i] = append(st.spans[i], trace.Span{Seq: uint32(st.seq0[class][chain] + step), Worker: uint32(rank), Start: int64(start), End: int64(end)})
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

// startStep makes the current chain step's charge the rank's op and
// plays it, or, past the chain's last step, goes for the next ticket. A
// chain runs exactly as the generated Fortran does: DFILL, then for each
// GEMM a blocking GET of A and B followed by the kernel, then the active
// SORT_4 + ADD_HASH_BLOCK pairs, all serially. Step 0 is the DFILL, steps
// 1..3·GEMMs the GETs and GEMMs, and the rest the SORT and ADD pairs.
func (r *rank) startStep() {
	c, node := r.chain, r.node
	cb := c.CBytes()
	k, nGemm := r.step, 3*len(c.Gemms)
	switch {
	case k == 0:
		// DFILL: zero the local C buffer (MA_PUSH_GET + dfill).
		r.class, r.i = dfill, 0
		r.op = cluster.MemoryOp(node, cb, false)
	case k <= nGemm:
		// GET_HASH_BLOCK immediately before the GEMM: "there is no
		// computation in the code between the point where the data
		// transfer starts and the point where the data is needed" (§V).
		r.class, r.i = readA+(k-1)%3, (k-1)/3
		g := c.Gemms[r.i]
		switch r.class {
		case readA:
			r.op = r.gs.GetOp(node, owner(g.ANode), g.Op.A.Bytes(), g.Op.A.Dims[0]*g.Op.A.Dims[1])
		case readB:
			r.op = r.gs.GetOp(node, owner(g.BNode), g.Op.B.Bytes(), g.Op.B.Dims[0]*g.Op.B.Dims[1])
		default:
			r.op = cluster.GemmOp(node, g.Op.Flops(), g.Op.A.Bytes()+g.Op.B.Bytes()+cb)
		}
	case k < 1+nGemm+2*len(c.Sorts):
		if r.class, r.i = sortC+(k-1-nGemm)%2, (k-1-nGemm)/2; r.class == sortC {
			r.op = cluster.MemoryOp(node, 2*cb, true)
		} else {
			r.op = r.gs.AccOp(node, owner(c.OutNode), c.Out.Bytes(), c.Out.Dims[0]*c.Out.Dims[1])
		}
	default:
		r.state = hiccup
		return
	}
	r.state, r.t0 = play, r.m.Eng.Now()
}
