// Package ccsd is the PaRSEC port of NWChem's icsd_t2_7 CCSD subroutine
// (§III-B, §IV): it turns the inspected TCE workload into Parameterized
// Task Graphs implementing the paper's algorithmic variants, and drives
// their execution on the real shared-memory runtime (with actual tensor
// arithmetic) and on the simulated cluster (for the Fig 9 and Fig 10-13
// experiments). Variants are no longer hand-written: each is an
// xform.Recipe — an ordered list of graph-transformation passes — whose
// resolved xform.Shape the builders consume.
package ccsd

import (
	"fmt"

	"parsec/internal/xform"
)

// VariantSpec selects one algorithmic variant of §IV-A / §V. A variant
// is a recipe — a named pass list over the base (v1) shape — and nothing
// more; the name survives as the spelling the facade and the other
// modules already use. Anything a caller wants to change about a
// variant's graph (segment height, write span) is one more pass:
// spec.Append(xform.SplitChain{Height: 2}).
type VariantSpec = xform.Recipe

// Variants returns the five variants evaluated in §V, in paper order.
func Variants() []VariantSpec { return xform.Named() }

// VariantByName resolves a variant argument: one of the named paper
// variants (v1..v5) or a flat recipe string in the xform grammar, e.g.
// "seg=4,tree=2,fission=sorts,prio=paper". Errors list the accepted
// syntax.
func VariantByName(name string) (VariantSpec, error) {
	r, err := xform.Parse(name)
	if err != nil {
		return VariantSpec{}, fmt.Errorf("ccsd: %w", err)
	}
	return r, nil
}
