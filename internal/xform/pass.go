package xform

import "fmt"

// Pass is one mechanical rewrite of a plan shape. Passes are pure:
// Apply returns the rewritten shape or an error when the rewrite's
// precondition fails (e.g. fissioning writes over a fused sort). The
// String form is the pass's name in a recipe listing.
type Pass interface {
	// Apply rewrites the shape.
	Apply(s Shape) (Shape, error)
	// String names the pass with its parameters.
	String() string
}

// SplitChain cuts every GEMM chain into segments of Height GEMMs, each
// accumulating into a private C buffer, with a reduction tree combining
// segment results (Fig 4). Height 1 is the paper's fully parallel
// organization (v2–v5).
type SplitChain struct {
	// Height is the segment height, >= 1.
	Height int
}

// Apply implements Pass.
func (p SplitChain) Apply(s Shape) (Shape, error) {
	if p.Height < 1 {
		return s, fmt.Errorf("xform: SplitChain height %d < 1", p.Height)
	}
	s.SegHeight = p.Height
	return s, nil
}

// String implements Pass.
func (p SplitChain) String() string { return fmt.Sprintf("SplitChain(%d)", p.Height) }

// FuseSegments multiplies the segment height by Factor, trading
// parallelism back for locality (the inverse direction of SplitChain).
// It requires an already-split chain; fusing all the way back to one
// segment is FuseChain.
type FuseSegments struct {
	// Factor is the height multiplier, >= 2.
	Factor int
}

// Apply implements Pass.
func (p FuseSegments) Apply(s Shape) (Shape, error) {
	if p.Factor < 2 {
		return s, fmt.Errorf("xform: FuseSegments factor %d < 2", p.Factor)
	}
	if s.SegHeight == 0 {
		return s, fmt.Errorf("xform: FuseSegments on an unsplit chain")
	}
	s.SegHeight *= p.Factor
	return s, nil
}

// String implements Pass.
func (p FuseSegments) String() string { return fmt.Sprintf("FuseSegments(%d)", p.Factor) }

// FuseChain restores the serial chain: one segment per chain, no
// reduction tree (v1's organization).
type FuseChain struct{}

// Apply implements Pass.
func (FuseChain) Apply(s Shape) (Shape, error) {
	s.SegHeight = 0
	return s, nil
}

// String implements Pass.
func (FuseChain) String() string { return "FuseChain" }

// ReshapeReduction sets the reduction-tree arity: fan-in per REDUCE
// task. Wider trees are shallower but serialize more additions inside
// each task.
type ReshapeReduction struct {
	// Arity is the fan-in, 2 to MaxTreeArity.
	Arity int
}

// Apply implements Pass.
func (p ReshapeReduction) Apply(s Shape) (Shape, error) {
	if p.Arity < 2 || p.Arity > MaxTreeArity {
		return s, fmt.Errorf("xform: ReshapeReduction arity %d outside [2, %d]", p.Arity, MaxTreeArity)
	}
	s.TreeArity = p.Arity
	return s, nil
}

// String implements Pass.
func (p ReshapeReduction) String() string { return fmt.Sprintf("ReshapeReduction(%d)", p.Arity) }

// FissionSorts splits the merged SORT into one task per active SORT_4
// branch (Fig 6/7).
type FissionSorts struct{}

// Apply implements Pass.
func (FissionSorts) Apply(s Shape) (Shape, error) {
	s.SortFission = true
	return s, nil
}

// String implements Pass.
func (FissionSorts) String() string { return "FissionSorts" }

// FuseSorts merges the SORT_i tasks into one serial SORT per chain
// (Fig 5). Fused sorts leave nothing for per-branch writes to pair
// with, so write fission is cleared too.
type FuseSorts struct{}

// Apply implements Pass.
func (FuseSorts) Apply(s Shape) (Shape, error) {
	s.SortFission = false
	s.WriteFission = false
	return s, nil
}

// String implements Pass.
func (FuseSorts) String() string { return "FuseSorts" }

// FissionWrites pairs each SORT_i with its own WRITE_C_i (Fig 7).
// Requires fissioned sorts.
type FissionWrites struct{}

// Apply implements Pass.
func (FissionWrites) Apply(s Shape) (Shape, error) {
	if !s.SortFission {
		return s, fmt.Errorf("xform: FissionWrites requires fissioned sorts")
	}
	s.WriteFission = true
	return s, nil
}

// String implements Pass.
func (FissionWrites) String() string { return "FissionWrites" }

// FuseWrites merges the WRITE_C_i tasks into one WRITE_C per chain
// receiving every sorted matrix (Fig 5/6).
type FuseWrites struct{}

// Apply implements Pass.
func (FuseWrites) Apply(s Shape) (Shape, error) {
	s.WriteFission = false
	return s, nil
}

// String implements Pass.
func (FuseWrites) String() string { return "FuseWrites" }

// SpanWrites splits each fused WRITE across Span adjacent nodes
// (Fig 8), each instance receiving and accumulating only its slice.
// Requires fused writes.
type SpanWrites struct {
	// Span is the node count, >= 1.
	Span int
}

// Apply implements Pass.
func (p SpanWrites) Apply(s Shape) (Shape, error) {
	if p.Span < 1 {
		return s, fmt.Errorf("xform: SpanWrites span %d < 1", p.Span)
	}
	if s.WriteFission && p.Span > 1 {
		return s, fmt.Errorf("xform: SpanWrites requires fused writes")
	}
	s.WriteSpan = p.Span
	return s, nil
}

// String implements Pass.
func (p SpanWrites) String() string { return fmt.Sprintf("SpanWrites(%d)", p.Span) }

// Prioritize selects the priority scheme.
type Prioritize struct {
	// Scheme is the target scheme.
	Scheme PrioScheme
}

// Apply implements Pass.
func (p Prioritize) Apply(s Shape) (Shape, error) {
	switch p.Scheme {
	case PrioNone, PrioPaper:
		s.Prio = p.Scheme
		return s, nil
	}
	return s, fmt.Errorf("xform: Prioritize(%q): unknown scheme", p.Scheme)
}

// String implements Pass.
func (p Prioritize) String() string { return fmt.Sprintf("Prioritize(%s)", p.Scheme) }
