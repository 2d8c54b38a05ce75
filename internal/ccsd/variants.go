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

	"parsec/internal/sched"
	"parsec/internal/xform"
)

// VariantSpec selects one algorithmic variant of §IV-A / §V: a named
// recipe of graph-transformation passes over the base (v1) shape. The
// five paper variants are short pass lists; derived recipes from the
// tuner or the flat recipe grammar are equally valid specs.
type VariantSpec struct {
	// Name labels the variant ("v4", or a canonical shape string for
	// derived recipes).
	Name string
	// Recipe is the pass list that produces the variant's plan shape.
	Recipe xform.Recipe
	// Description is the paper's one-line characterization (§V), or the
	// pass list for derived recipes.
	Description string
}

// String returns "name: description".
func (v VariantSpec) String() string { return fmt.Sprintf("%s: %s", v.Name, v.Description) }

// Shape resolves the recipe against the base shape. The zero
// VariantSpec has an empty pass list and resolves to the base (v1).
func (v VariantSpec) Shape() (xform.Shape, error) { return v.Recipe.Shape() }

// MustShape is Shape, panicking on an invalid pass list. Specs obtained
// from Variants, VariantByName, or VariantFromRecipe are always valid;
// only a hand-assembled inconsistent pass list can panic here.
func (v VariantSpec) MustShape() xform.Shape { return v.Recipe.MustShape() }

// UsePriorities reports whether the variant's shape assigns the §IV-C
// priority expressions; without them schedulers run
// most-recently-ready-first (LIFO).
func (v VariantSpec) UsePriorities() bool { return v.MustShape().Prio == xform.PrioPaper }

// Policy is the ready-queue order both executors run the variant under:
// priority order when the shape assigns priorities, LIFO otherwise.
func (v VariantSpec) Policy() sched.Policy {
	if v.UsePriorities() {
		return sched.PriorityOrder
	}
	return sched.LIFOOrder
}

// variantDescriptions are the §V one-liners for the named recipes.
var variantDescriptions = map[string]string{
	"v1": "GEMMs in a serial chain, SORTs and WRITEs parallel, priorities",
	"v2": "GEMMs and SORTs parallel, one WRITE, no priorities",
	"v3": "GEMMs, SORTs and WRITEs all parallel, priorities",
	"v4": "GEMMs and SORTs parallel, one WRITE, priorities",
	"v5": "GEMMs parallel, one SORT and one WRITE, priorities",
}

// Variants returns the five variants evaluated in §V, in paper order.
func Variants() []VariantSpec {
	named := xform.Named()
	out := make([]VariantSpec, len(named))
	for i, r := range named {
		out[i] = VariantSpec{Name: r.Name, Recipe: r, Description: variantDescriptions[r.Name]}
	}
	return out
}

// VariantFromRecipe wraps a resolved recipe as a spec. Named paper
// recipes get their §V descriptions; derived recipes are described by
// their pass list.
func VariantFromRecipe(r xform.Recipe) VariantSpec {
	v := VariantSpec{Name: r.Name, Recipe: r, Description: variantDescriptions[r.Name]}
	if v.Description == "" {
		v.Description = "derived recipe " + r.String()
	}
	if v.Name == "" {
		if s, err := r.Shape(); err == nil {
			v.Name = s.Canon()
		}
	}
	return v
}

// VariantByName resolves a variant argument: one of the named paper
// variants (v1..v5) or a flat recipe string in the xform grammar, e.g.
// "seg=4,tree=2,fission=sorts,prio=paper". Errors list the accepted
// syntax.
func VariantByName(name string) (VariantSpec, error) {
	r, err := xform.Parse(name)
	if err != nil {
		return VariantSpec{}, fmt.Errorf("ccsd: %w", err)
	}
	return VariantFromRecipe(r), nil
}

// EffectiveShape resolves the spec's shape with the Options-level
// overrides applied: segHeight > 0 replaces the recipe's segment
// height (the §IV-A ablation dial), writeSpan > 0 replaces the write
// span. The result is normalized, so shapes that instantiate identical
// graphs compare equal — this is the value plan caching keys off.
func EffectiveShape(spec VariantSpec, segHeight, writeSpan int) (xform.Shape, error) {
	s, err := spec.Shape()
	if err != nil {
		return xform.Shape{}, err
	}
	if segHeight > 0 {
		s.SegHeight = segHeight
	}
	if writeSpan > 0 {
		s.WriteSpan = writeSpan
	}
	s = s.Normalize()
	return s, s.Validate()
}

// effectiveShape is EffectiveShape for builder entry points whose
// signatures cannot carry an error; the overrides only widen or narrow
// integer dials, so with a valid spec it cannot fail.
func effectiveShape(spec VariantSpec, opts Options) xform.Shape {
	s, err := EffectiveShape(spec, opts.SegmentHeight, opts.WriteSpan)
	if err != nil {
		panic(err)
	}
	return s
}
