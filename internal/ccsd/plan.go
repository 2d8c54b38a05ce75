package ccsd

import (
	"parsec/internal/tce"
	"parsec/internal/xform"
)

// chainPlan precomputes the task-graph shape of one chain: its GEMM
// segmentation and the reduction tree over segment results (Fig 4). A
// segment is a run of GEMMs accumulating serially into one private C
// buffer; the paper considers the two extremes — height 1 (maximum
// parallelism) and the full chain (maximum locality, v1) — and this plan
// supports any height for the ablation study, and any reduction-tree
// arity for the ReshapeReduction pass.
type chainPlan struct {
	meta   *tce.ChainMeta
	n      int   // GEMMs in the chain
	h      int   // segment height
	m      int   // number of segments: ceil(n/h)
	arity  int   // reduction-tree fan-in (>= 2)
	top    int   // reduction tree height (0 when m == 1)
	width  []int // tree width per level; width[0] = m
	nsorts int
	cbytes int64
}

func newChainPlan(meta *tce.ChainMeta, height, arity int) chainPlan {
	n := len(meta.Gemms)
	h := height
	if h <= 0 || h > n {
		h = n
	}
	if arity < 2 {
		arity = 2
	}
	p := chainPlan{
		meta:   meta,
		n:      n,
		h:      h,
		m:      (n + h - 1) / h,
		arity:  arity,
		nsorts: len(meta.Sorts),
		cbytes: meta.CBytes(),
	}
	for w := p.m; w > 1; w = (w + arity - 1) / arity {
		p.top++
	}
	return p
}

// appendWidth appends the plan's tree widths, top+1 of them, to width
// and keeps them as p.width, capacity-clipped so the plans sharing the
// array cannot write into each other's levels.
func (p *chainPlan) appendWidth(width []int) []int {
	start := len(width)
	width = append(width, p.m)
	for w := p.m; w > 1; {
		w = (w + p.arity - 1) / p.arity
		width = append(width, w)
	}
	p.width = width[start:len(width):len(width)]
	return width
}

// seg returns the segment index of GEMM position l2.
func (p *chainPlan) seg(l2 int) int { return l2 / p.h }

// posInSeg returns the position of l2 within its segment.
func (p *chainPlan) posInSeg(l2 int) int { return l2 % p.h }

// segLast returns the chain position of the last GEMM of segment s.
func (p *chainPlan) segLast(s int) int {
	last := (s+1)*p.h - 1
	if last >= p.n {
		last = p.n - 1
	}
	return last
}

// isSegEnd reports whether l2 is the last GEMM of its segment.
func (p *chainPlan) isSegEnd(l2 int) bool { return p.segLast(p.seg(l2)) == l2 }

// plans builds the per-chain plans for a workload under a resolved
// shape: SegHeight 0 keeps each chain as one serial segment, k >= 1
// cuts it into segments of k GEMMs reduced by an arity-TreeArity tree.
// The plans and their tree widths are two arrays, whatever the number
// of chains.
func plans(w *tce.Workload, shape xform.Shape) []chainPlan {
	ps := make([]chainPlan, len(w.Chains))
	levels := 0
	for i, c := range w.Chains {
		ps[i] = newChainPlan(c, shape.SegHeight, shape.TreeArity)
		levels += ps[i].top + 1
	}
	width := make([]int, 0, levels)
	for i := range ps {
		width = ps[i].appendWidth(width)
	}
	return ps
}
