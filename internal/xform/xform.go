// Package xform turns the paper's hand-derived algorithmic variants into
// mechanical graph transformations, following Eijkhout's observation that
// latency-tolerance rewrites (chain splitting, reduction reshaping, task
// fission/fusion, priority assignment) are composable passes over a task
// graph rather than five bespoke programs.
//
// The package is deliberately split in two levels:
//
//   - Shape is the resolved plan-shaping state — the complete answer to
//     "what graph does this variant instantiate": GEMM segment height,
//     reduction-tree arity, SORT/WRITE fission, write span, priority
//     scheme. The ccsd builders consume a Shape; nothing else about a
//     variant reaches them.
//   - A Pass is one rewrite of a Shape (SplitChain, FuseSegments,
//     ReshapeReduction, FissionSorts, FissionWrites, SpanWrites,
//     Prioritize, and their inverses), and a Recipe is an ordered pass
//     list applied to the base shape. The paper's v1–v5 are five named
//     recipes; the tuner searches the recipe space by mutating pass
//     lists and scoring candidates on the discrete-event simulator.
package xform

import (
	"fmt"
	"strings"
)

// PrioScheme names a task-priority assignment scheme.
type PrioScheme string

// The priority schemes.
const (
	// PrioNone runs the scheduler most-recently-ready-first (v2, Fig 11).
	PrioNone PrioScheme = "none"
	// PrioPaper assigns the §IV-C expressions: priority decreases with
	// chain number; data-read tasks get offset +5·P and GEMMs +1·P,
	// building a prefetch pipeline of depth 5·P.
	PrioPaper PrioScheme = "paper"
)

// Shape is the resolved plan-shaping state a recipe produces: the
// complete, builder-facing description of one point in the variant
// space. It is a small comparable value, so search loops can use it
// directly as a visited-set key.
type Shape struct {
	// SegHeight is the GEMM segment height: 0 keeps each chain as one
	// serial segment sharing a C buffer (maximum locality, v1); k >= 1
	// cuts chains into segments of k GEMMs that run in parallel into
	// private buffers, followed by a reduction tree (Fig 4).
	SegHeight int
	// TreeArity is the reduction-tree fan-in (>= 2). The paper's trees
	// are binary; wider trees trade tree depth for serialization inside
	// each REDUCE task.
	TreeArity int
	// SortFission runs the up-to-four active SORT_4 branches as
	// independent SORT_i tasks (Fig 6/7); fused, one SORT task performs
	// them serially into a single accumulated Csorted (Fig 5).
	SortFission bool
	// WriteFission pairs each SORT_i with its own WRITE_C_i (Fig 7);
	// fused, a single WRITE_C receives every sorted matrix. Write
	// fission requires sort fission: there is one WRITE per sorted
	// matrix, so fissioned writes need fissioned sorts to pair with.
	WriteFission bool
	// WriteSpan > 1 splits each fused WRITE across that many adjacent
	// nodes (Fig 8), each instance accumulating only its slice. Only
	// meaningful without write fission; >= 1.
	WriteSpan int
	// Prio selects the priority scheme.
	Prio PrioScheme
}

// Base returns the root of the recipe space: v1's shape. Every recipe
// is a pass list applied to this — serial GEMM chains, binary reduction
// (vacuous while chains are unsplit), fissioned SORTs and WRITEs, unit
// write span, paper priorities.
func Base() Shape {
	return Shape{
		SegHeight:    0,
		TreeArity:    2,
		SortFission:  true,
		WriteFission: true,
		WriteSpan:    1,
		Prio:         PrioPaper,
	}
}

// MaxTreeArity is the widest reduction tree a shape can ask for: a
// REDUCE task takes one input flow per child, and a task class carries
// at most 32 flows (ptg keeps per-flow state as a bit of a uint32).
const MaxTreeArity = 32

// Validate reports whether the shape is internally consistent.
func (s Shape) Validate() error {
	if s.SegHeight < 0 {
		return fmt.Errorf("xform: segment height %d < 0", s.SegHeight)
	}
	if s.TreeArity < 2 || s.TreeArity > MaxTreeArity {
		return fmt.Errorf("xform: reduction-tree arity %d outside [2, %d]", s.TreeArity, MaxTreeArity)
	}
	if s.WriteSpan < 1 {
		return fmt.Errorf("xform: write span %d < 1", s.WriteSpan)
	}
	if s.WriteFission && !s.SortFission {
		return fmt.Errorf("xform: write fission requires sort fission (one WRITE per sorted matrix)")
	}
	if s.WriteFission && s.WriteSpan > 1 {
		return fmt.Errorf("xform: write span > 1 requires fused writes (fission=none or sorts)")
	}
	switch s.Prio {
	case PrioNone, PrioPaper:
	default:
		return fmt.Errorf("xform: unknown priority scheme %q (want none or paper)", s.Prio)
	}
	return nil
}

// Normalize zeroes the dimensions that cannot affect the generated
// graph, so that shapes which instantiate identical graphs compare
// equal: tree arity is moot while chains are unsplit (no reduction tree
// exists), and write span is moot under write fission (each WRITE
// already owns exactly one sorted matrix). Plan caching, tuner
// deduplication, and Canon all key off the normalized form.
func (s Shape) Normalize() Shape {
	if s.SegHeight == 0 {
		s.TreeArity = 2
	}
	if s.WriteFission {
		s.WriteSpan = 1
	}
	return s
}

// Fission renders the fission state as the grammar's three-valued
// token: "writes" (SORTs and WRITEs fissioned), "sorts" (SORTs only),
// or "none" (one SORT, one WRITE).
func (s Shape) Fission() string {
	switch {
	case s.WriteFission:
		return "writes"
	case s.SortFission:
		return "sorts"
	default:
		return "none"
	}
}

// Canon renders the normalized shape in the flat recipe grammar with
// every key present in fixed order. Equal canonical strings mean
// equal generated graphs for any workload; serve.PlanKey and the tuner
// both rely on that.
func (s Shape) Canon() string {
	s = s.Normalize()
	return fmt.Sprintf("seg=%d,tree=%d,fission=%s,prio=%s,span=%d",
		s.SegHeight, s.TreeArity, s.Fission(), s.Prio, s.WriteSpan)
}

// String is Canon.
func (s Shape) String() string { return s.Canon() }

// ParseShape parses the flat grammar ("seg=4,tree=2,fission=sorts,
// prio=paper,span=1"); omitted keys keep their Base values. It is the
// shape half of Parse — see Grammar for the accepted syntax.
func ParseShape(src string) (Shape, error) {
	s := Base()
	if strings.TrimSpace(src) == "" {
		return Shape{}, fmt.Errorf("xform: empty recipe string\n%s", Grammar())
	}
	for _, kv := range strings.Split(src, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Shape{}, fmt.Errorf("xform: bad recipe term %q (want key=value)\n%s", kv, Grammar())
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "seg":
			if val == "full" {
				s.SegHeight = 0
				break
			}
			n, err := parseUint(key, val)
			if err != nil {
				return Shape{}, err
			}
			s.SegHeight = n
		case "tree":
			n, err := parseUint(key, val)
			if err != nil {
				return Shape{}, err
			}
			s.TreeArity = n
		case "fission":
			switch val {
			case "none":
				s.SortFission, s.WriteFission = false, false
			case "sorts":
				s.SortFission, s.WriteFission = true, false
			case "writes":
				s.SortFission, s.WriteFission = true, true
			default:
				return Shape{}, fmt.Errorf("xform: fission=%q (want none, sorts, or writes)\n%s", val, Grammar())
			}
		case "prio":
			switch PrioScheme(val) {
			case PrioNone, PrioPaper:
				s.Prio = PrioScheme(val)
			default:
				return Shape{}, fmt.Errorf("xform: prio=%q (want none or paper)\n%s", val, Grammar())
			}
		case "span":
			n, err := parseUint(key, val)
			if err != nil {
				return Shape{}, err
			}
			s.WriteSpan = n
		default:
			return Shape{}, fmt.Errorf("xform: unknown recipe key %q\n%s", key, Grammar())
		}
	}
	if err := s.Validate(); err != nil {
		return Shape{}, fmt.Errorf("%w\n%s", err, Grammar())
	}
	return s, nil
}

// parseUint parses a non-negative integer grammar value.
func parseUint(key, val string) (int, error) {
	n := 0
	if val == "" {
		return 0, fmt.Errorf("xform: %s= needs a value\n%s", key, Grammar())
	}
	for _, c := range val {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("xform: %s=%q is not a non-negative integer\n%s", key, val, Grammar())
		}
		n = n*10 + int(c-'0')
		if n > 1<<20 {
			return 0, fmt.Errorf("xform: %s=%q is out of range\n%s", key, val, Grammar())
		}
	}
	return n, nil
}

// Grammar returns the accepted recipe syntax, for up-front CLI
// validation messages.
func Grammar() string {
	return `accepted recipes:
  v1..v5                     the paper's named variants
  key=value[,key=value...]   a flat recipe; omitted keys keep v1 defaults:
    seg=N|full    GEMM segment height (full/0 = one serial chain; N>=1 segments of N)
    tree=N        reduction-tree arity, 2<=N<=32 (moot while seg=full)
    fission=F     none | sorts | writes (writes implies fissioned sorts)
    prio=S        none | paper (§IV-C chain-rank + read/GEMM offsets)
    span=N        fused-WRITE span across N adjacent nodes, N>=1 (needs fission!=writes)
  example: seg=4,tree=2,fission=sorts,prio=paper`
}
