package tce

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"parsec/internal/tensor"
)

// GemmMeta is one entry of the inspection phase's metadata arrays: the
// iteration vector of a GEMM, the blocks it touches, and — once the
// Global Arrays library has been queried — the node that owns each block
// (§III-B: "we store the pointers to the data ... as well as the
// iteration vector into a meta-data array").
type GemmMeta struct {
	Op           GemmOp
	ANode, BNode int // owners of the input blocks (-1 if no locator)
}

// ChainMeta groups the metadata of one chain of GEMMs. An inspected
// workload keeps every chain's GEMMs in one array, chain after chain:
// Gemms is the chain's capacity-clipped window of it, and first is
// where that window starts. Sorts is shared with every chain of the
// same branch set (SortBranches). Both are read-only.
type ChainMeta struct {
	ID      int
	Out     BlockRef
	OutNode int    // owner of the output block (-1 if no locator)
	CDims   [4]int // GEMM-layout dims (p3, h1, p4, h2)
	Gemms   []GemmMeta
	Sorts   []SortOp
	first   int32
}

// CBytes returns the size of the chain's C buffer in bytes.
func (c *ChainMeta) CBytes() int64 {
	return int64(c.CDims[0]*c.CDims[1]*c.CDims[2]*c.CDims[3]) * 8
}

// Flops returns the total GEMM flops of the chain.
func (c *ChainMeta) Flops() int64 {
	var f int64
	for _, g := range c.Gemms {
		f += g.Op.Flops()
	}
	return f
}

// Workload is the result of the inspection phase: everything PaRSEC needs
// to instantiate the task graph — the number of chains (size_L1 in
// Fig 1), the length of each chain (size_L2), and per-GEMM block
// locations. It also serves the CGP baseline, which consumes chains as
// whole units of work.
type Workload struct {
	Kernel *Kernel
	Chains []*ChainMeta

	// Derived once, on first use, by derive: the distinct blocks per
	// tensor (UniqueBlocks), the input block tables (Inputs) and the
	// output blocks in block-key order (Energy's fold order).
	deriveOnce sync.Once
	uniq       map[string][]BlockRef
	inputs     [2]*InputTable
	outByKey   []int32 // positions in uniq[TensorC], in block-key order
}

// Locator maps a block to the node that owns its Global Array storage.
type Locator func(BlockRef) int

// inspector is the Emitter that fills the metadata arrays. It is the
// "slice of the original code that contains all the control flow
// statements but none of the subroutine calls" (§III-B). Inspect sizes
// its arrays exactly before it runs (counter), so an inspection costs
// a fixed number of allocations however many chains it finds, leaves
// no garbage behind, and a cached plan keeps no slack.
type inspector struct {
	loc    Locator
	chains []ChainMeta
	gemms  []GemmMeta
}

// counter is the Emitter that only counts chains and GEMMs: the loop
// nest's control flow is a few milliseconds even for beta-carotene, far
// less than growing the arrays would cost.
type counter struct{ chains, gemms int }

func (n *counter) StartChain(int, BlockRef, [4]int) { n.chains++ }
func (n *counter) Gemm(int, int, GemmOp)            { n.gemms++ }
func (n *counter) EndChain(int, []SortOp)           {}

func (in *inspector) locate(b BlockRef) int {
	if in.loc == nil {
		return -1
	}
	return in.loc(b)
}

func (in *inspector) StartChain(chain int, out BlockRef, cdims [4]int) {
	in.chains = append(in.chains, ChainMeta{ID: chain, Out: out, OutNode: in.locate(out), CDims: cdims, first: int32(len(in.gemms))})
}

func (in *inspector) Gemm(chain, pos int, g GemmOp) {
	if len(in.chains) == 0 || in.chains[len(in.chains)-1].ID != chain {
		panic(fmt.Sprintf("tce: Gemm for chain %d outside StartChain", chain))
	}
	if want := len(in.gemms) - int(in.chains[len(in.chains)-1].first); pos != want {
		panic(fmt.Sprintf("tce: GEMM position %d, expected %d", pos, want))
	}
	in.gemms = append(in.gemms, GemmMeta{
		Op:    g,
		ANode: in.locate(g.A),
		BNode: in.locate(g.B),
	})
}

func (in *inspector) EndChain(chain int, sorts []SortOp) {
	in.chains[len(in.chains)-1].Sorts = sorts
}

// Inspect runs the inspection phase for a kernel: it executes the control
// flow of the loop nest (without any computation or communication) and
// returns the filled metadata arrays. loc may be nil when block placement
// is not needed (e.g. shared-memory execution).
func Inspect(k *Kernel, loc Locator) *Workload {
	n := &counter{}
	k.Walk(n)
	in := &inspector{loc: loc, chains: make([]ChainMeta, 0, n.chains), gemms: make([]GemmMeta, 0, n.gemms)}
	k.Walk(in)
	w := &Workload{Kernel: k, Chains: make([]*ChainMeta, len(in.chains))}
	for i := range in.chains {
		c := &in.chains[i]
		end := len(in.gemms)
		if i+1 < len(in.chains) {
			end = int(in.chains[i+1].first)
		}
		c.Gemms = in.gemms[c.first:end:end]
		w.Chains[i] = c
	}
	return w
}

// NumChains returns the number of chains (the PTG's size_L1).
func (w *Workload) NumChains() int { return len(w.Chains) }

// ChainLen returns the number of GEMMs in chain i (the PTG's size_L2).
func (w *Workload) ChainLen(i int) int { return len(w.Chains[i].Gemms) }

// Stats summarizes a workload.
type Stats struct {
	Chains      int
	Gemms       int
	Sorts       int
	TotalFlops  int64
	InputBytes  int64 // bytes of A and B blocks fetched (with re-fetches)
	OutputBytes int64 // bytes of C blocks written once per chain
	MinLen      int
	MaxLen      int
	MeanLen     float64
}

// Stats computes summary statistics of the workload.
func (w *Workload) Stats() Stats {
	s := Stats{Chains: len(w.Chains), MinLen: int(^uint(0) >> 1)}
	for _, c := range w.Chains {
		n := len(c.Gemms)
		s.Gemms += n
		s.Sorts += len(c.Sorts)
		if n < s.MinLen {
			s.MinLen = n
		}
		if n > s.MaxLen {
			s.MaxLen = n
		}
		for _, g := range c.Gemms {
			s.TotalFlops += g.Op.Flops()
			s.InputBytes += g.Op.A.Bytes() + g.Op.B.Bytes()
		}
		s.OutputBytes += c.Out.Bytes()
	}
	if s.Chains > 0 {
		s.MeanLen = float64(s.Gemms) / float64(s.Chains)
	} else {
		s.MinLen = 0
	}
	return s
}

// String summarizes the workload's shape in one line.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chains=%d gemms=%d sorts=%d flops=%.3g", s.Chains, s.Gemms, s.Sorts, float64(s.TotalFlops))
	fmt.Fprintf(&b, " chainLen=[%d..%d] mean=%.1f", s.MinLen, s.MaxLen, s.MeanLen)
	fmt.Fprintf(&b, " in=%.3gMB out=%.3gMB", float64(s.InputBytes)/1e6, float64(s.OutputBytes)/1e6)
	return b.String()
}

// UniqueBlocks returns the distinct blocks of a tensor referenced by the
// workload (inputs by its GEMMs, outputs by its chains), ordered by their
// printed form. Used to size and fill the Global Arrays before execution
// and to build the energy weights after it, several times per job, so
// the lists are derived once per workload; callers must not mutate the
// returned slice.
func (w *Workload) UniqueBlocks(tensorName string) []BlockRef {
	w.derive()
	return w.uniq[tensorName]
}

// derive computes everything that is a pure function of the inspected
// chains and is asked for per job rather than per workload.
func (w *Workload) derive() {
	w.deriveOnce.Do(func() {
		seen := make(map[BlockRef]bool)
		var refs []BlockRef
		add := func(ref BlockRef) {
			if !seen[ref] {
				seen[ref] = true
				refs = append(refs, ref)
			}
		}
		for _, c := range w.Chains {
			add(c.Out)
			for _, g := range c.Gemms {
				add(g.Op.A)
				add(g.Op.B)
			}
		}
		slices.SortFunc(refs, comparePrinted)
		w.uniq = make(map[string][]BlockRef)
		for _, ref := range refs {
			w.uniq[ref.Tensor] = append(w.uniq[ref.Tensor], ref)
		}

		aName, bName := w.InputTensors()
		w.inputs[0] = newInputTable(w, aName, tensor.PanelA, func(g *GemmOp) BlockRef { return g.A })
		w.inputs[1] = newInputTable(w, bName, tensor.PanelB, func(g *GemmOp) BlockRef { return g.B })

		w.outByKey = keyOrder(w.uniq[TensorC])
	})
}
