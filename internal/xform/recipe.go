package xform

import (
	"fmt"
	"strings"

	"parsec/internal/sched"
)

// Recipe is an ordered pass list applied to the base shape. A recipe IS
// a variant: the paper's v1–v5 are the five named recipes below, and the
// tuner's candidates are anonymous ones. Recipes with different pass
// lists may resolve to the same Shape — the shape, not the list, is
// what determines the generated graph.
type Recipe struct {
	// Name labels the recipe ("v4", or a canonical shape string for
	// derived recipes). Purely descriptive.
	Name string
	// Passes is the ordered rewrite list; empty means the base shape.
	Passes []Pass
	// Description is the paper's one-line characterization (§V) of a
	// named recipe, or the pass list of a derived one.
	Description string
}

// Shape applies the pass list to Base and returns the resolved shape.
func (r Recipe) Shape() (Shape, error) {
	s := Base()
	for _, p := range r.Passes {
		var err error
		if s, err = p.Apply(s); err != nil {
			return Shape{}, fmt.Errorf("%w (in recipe %s)", err, r.passList())
		}
	}
	if err := s.Validate(); err != nil {
		return Shape{}, fmt.Errorf("%w (in recipe %s)", err, r.passList())
	}
	return s, nil
}

// MustShape is Shape, panicking on error — for the named recipes and
// tests, whose pass lists are statically known to be valid.
func (r Recipe) MustShape() Shape {
	s, err := r.Shape()
	if err != nil {
		panic(err)
	}
	return s
}

// UsePriorities reports whether the recipe's shape assigns the §IV-C
// priority expressions; without them schedulers run
// most-recently-ready-first (LIFO). Like MustShape it panics on an
// invalid hand-assembled pass list.
func (r Recipe) UsePriorities() bool { return r.MustShape().Prio == PrioPaper }

// Policy is the ready-queue order every executor runs the recipe under:
// priority order when the shape assigns priorities, LIFO otherwise.
func (r Recipe) Policy() sched.Policy {
	if r.UsePriorities() {
		return sched.PriorityOrder
	}
	return sched.LIFOOrder
}

// String renders the recipe as "name: description", its line in a
// variant listing; a hand-assembled recipe without a description renders
// as its pass list.
func (r Recipe) String() string {
	if r.Description == "" {
		return r.passList()
	}
	return r.Name + ": " + r.Description
}

// passList renders the recipe as its name plus the pass list.
func (r Recipe) passList() string {
	names := make([]string, len(r.Passes))
	for i, p := range r.Passes {
		names[i] = p.String()
	}
	list := "[" + strings.Join(names, " ") + "]"
	if r.Name == "" {
		return list
	}
	return r.Name + " " + list
}

// Append returns a copy of r with extra passes appended; the new
// recipe's name is the resolved canonical shape string. The receiver's
// pass slice is never aliased, so search loops can branch freely. This
// is how a caller overrides one dial of a variant — v4 at segment
// height 2 is v4.Append(SplitChain{2}) — and the appended pass's own
// precondition is what rejects an override the shape cannot take.
func (r Recipe) Append(extra ...Pass) (Recipe, error) {
	passes := make([]Pass, 0, len(r.Passes)+len(extra))
	passes = append(passes, r.Passes...)
	passes = append(passes, extra...)
	s, err := Recipe{Passes: passes}.Shape()
	if err != nil {
		return Recipe{}, err
	}
	return derived(passes, s), nil
}

// derived names a resolved pass list after its canonical shape string
// and describes it by the list itself.
func derived(passes []Pass, s Shape) Recipe {
	r := Recipe{Name: s.Canon(), Passes: passes}
	r.Description = "derived recipe " + r.passList()
	return r
}

// FromShape synthesizes the minimal pass list that rewrites Base into
// the given shape, in canonical order. The result round-trips:
// FromShape(s).MustShape().Normalize() == s.Normalize().
func FromShape(s Shape) (Recipe, error) {
	if err := s.Validate(); err != nil {
		return Recipe{}, err
	}
	s = s.Normalize()
	var passes []Pass
	if s.SegHeight > 0 {
		passes = append(passes, SplitChain{Height: s.SegHeight})
	}
	if s.TreeArity != 2 {
		passes = append(passes, ReshapeReduction{Arity: s.TreeArity})
	}
	switch s.Fission() {
	case "none":
		passes = append(passes, FuseSorts{})
	case "sorts":
		passes = append(passes, FuseWrites{})
	}
	if s.WriteSpan != 1 {
		passes = append(passes, SpanWrites{Span: s.WriteSpan})
	}
	if s.Prio != PrioPaper {
		passes = append(passes, Prioritize{Scheme: s.Prio})
	}
	return derived(passes, s), nil
}

// Named returns the paper's five variants as recipes, in paper order.
// v1 is the base; the others are short rewrite sequences of it, which
// is the whole point: the hand-derived variant space is mechanical.
func Named() []Recipe {
	return []Recipe{
		{Name: "v1", Passes: nil,
			Description: "GEMMs in a serial chain, SORTs and WRITEs parallel, priorities"},
		{Name: "v2", Passes: []Pass{SplitChain{Height: 1}, FuseWrites{}, Prioritize{Scheme: PrioNone}},
			Description: "GEMMs and SORTs parallel, one WRITE, no priorities"},
		{Name: "v3", Passes: []Pass{SplitChain{Height: 1}},
			Description: "GEMMs, SORTs and WRITEs all parallel, priorities"},
		{Name: "v4", Passes: []Pass{SplitChain{Height: 1}, FuseWrites{}},
			Description: "GEMMs and SORTs parallel, one WRITE, priorities"},
		{Name: "v5", Passes: []Pass{SplitChain{Height: 1}, FuseSorts{}},
			Description: "GEMMs parallel, one SORT and one WRITE, priorities"},
	}
}

// ByName returns the named recipe (v1..v5).
func ByName(name string) (Recipe, bool) {
	for _, r := range Named() {
		if r.Name == name {
			return r, true
		}
	}
	return Recipe{}, false
}

// Parse resolves a variant argument: a named recipe ("v1".."v5") or a
// flat recipe string in the Grammar syntax. Errors embed the grammar so
// CLI surfaces can validate up front.
func Parse(src string) (Recipe, error) {
	src = strings.TrimSpace(src)
	if r, ok := ByName(src); ok {
		return r, nil
	}
	if !strings.Contains(src, "=") {
		return Recipe{}, fmt.Errorf("xform: unknown variant %q\n%s", src, Grammar())
	}
	s, err := ParseShape(src)
	if err != nil {
		return Recipe{}, err
	}
	return FromShape(s)
}
