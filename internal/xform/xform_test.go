package xform

import (
	"strings"
	"testing"
)

func TestNamedRecipeShapes(t *testing.T) {
	// The five paper variants, as the old boolean structs described them:
	// (SerialGemms, SortFission, WriteFission, UsePriorities).
	want := map[string]Shape{
		"v1": {SegHeight: 0, TreeArity: 2, SortFission: true, WriteFission: true, WriteSpan: 1, Prio: PrioPaper},
		"v2": {SegHeight: 1, TreeArity: 2, SortFission: true, WriteFission: false, WriteSpan: 1, Prio: PrioNone},
		"v3": {SegHeight: 1, TreeArity: 2, SortFission: true, WriteFission: true, WriteSpan: 1, Prio: PrioPaper},
		"v4": {SegHeight: 1, TreeArity: 2, SortFission: true, WriteFission: false, WriteSpan: 1, Prio: PrioPaper},
		"v5": {SegHeight: 1, TreeArity: 2, SortFission: false, WriteFission: false, WriteSpan: 1, Prio: PrioPaper},
	}
	for _, r := range Named() {
		got := r.MustShape()
		if got != want[r.Name] {
			t.Errorf("%s: shape %+v, want %+v", r.Name, got, want[r.Name])
		}
	}
	if len(Named()) != 5 {
		t.Fatalf("Named() returned %d recipes, want 5", len(Named()))
	}
}

func TestPassPreconditions(t *testing.T) {
	cases := []struct {
		name  string
		pass  Pass
		shape Shape
	}{
		{"split0", SplitChain{Height: 0}, Base()},
		{"fuseseg-unsplit", FuseSegments{Factor: 2}, Base()},
		{"fuseseg-factor1", FuseSegments{Factor: 1}, mustShape(t, "seg=2")},
		{"reshape1", ReshapeReduction{Arity: 1}, Base()},
		{"reshape-wider-than-a-class", ReshapeReduction{Arity: MaxTreeArity + 1}, mustShape(t, "seg=1")},
		{"fissionwrites-fused-sorts", FissionWrites{}, mustShape(t, "fission=none")},
		{"span-on-fissioned-writes", SpanWrites{Span: 2}, Base()},
		{"span0", SpanWrites{Span: 0}, mustShape(t, "fission=sorts")},
		{"prio-bogus", Prioritize{Scheme: "fifo"}, Base()},
	}
	for _, c := range cases {
		if _, err := c.pass.Apply(c.shape); err == nil {
			t.Errorf("%s: Apply succeeded, want precondition error", c.name)
		}
	}
}

// TestTreeArityBound: the grammar refuses a reduction tree wider than a
// task class can carry flows for. tree=33 used to parse and compile, and
// then every backend failed to build the graph (its REDUCE class had 33
// flows); the widest tree that builds still parses.
func TestTreeArityBound(t *testing.T) {
	if _, err := Parse("seg=1,tree=33"); err == nil {
		t.Error("tree=33 parsed")
	}
	if s := mustShape(t, "seg=1,tree=32"); s.TreeArity != MaxTreeArity {
		t.Errorf("tree=32 parsed to arity %d", s.TreeArity)
	}
}

func TestPassComposition(t *testing.T) {
	// SplitChain then FuseSegments lands on the product height.
	r := Recipe{Passes: []Pass{SplitChain{Height: 2}, FuseSegments{Factor: 3}}}
	if s := r.MustShape(); s.SegHeight != 6 {
		t.Errorf("split(2)+fuseseg(3): height %d, want 6", s.SegHeight)
	}
	// FuseChain undoes any split.
	r = Recipe{Passes: []Pass{SplitChain{Height: 4}, FuseChain{}}}
	if s := r.MustShape(); s.SegHeight != 0 {
		t.Errorf("split(4)+fusechain: height %d, want 0", s.SegHeight)
	}
	// FuseSorts clears write fission; FissionSorts alone does not restore it.
	r = Recipe{Passes: []Pass{FuseSorts{}, FissionSorts{}}}
	s := r.MustShape()
	if !s.SortFission || s.WriteFission {
		t.Errorf("fusesorts+fissionsorts: %+v, want fissioned sorts, fused writes", s)
	}
}

func TestNormalize(t *testing.T) {
	// Tree arity is moot on an unsplit chain.
	a := mustShape(t, "seg=full,tree=8")
	b := mustShape(t, "seg=full,tree=2")
	if a.Normalize() != b.Normalize() {
		t.Errorf("tree arity not normalized away at seg=full: %v vs %v", a, b)
	}
	// Span is moot under write fission (parse rejects span>1 there, so
	// exercise Normalize directly).
	c := Shape{SegHeight: 1, TreeArity: 2, SortFission: true, WriteFission: true, WriteSpan: 3, Prio: PrioPaper}
	if c.Normalize().WriteSpan != 1 {
		t.Errorf("span not normalized away under write fission: %v", c.Normalize())
	}
	// Distinct real dimensions survive.
	if mustShape(t, "seg=2,tree=3").Normalize() == mustShape(t, "seg=2,tree=4").Normalize() {
		t.Error("distinct tree arities normalized together")
	}
}

func TestParseGrammar(t *testing.T) {
	s, err := ParseShape("seg=4,tree=3,fission=sorts,prio=none,span=2")
	if err != nil {
		t.Fatal(err)
	}
	want := Shape{SegHeight: 4, TreeArity: 3, SortFission: true, WriteFission: false, WriteSpan: 2, Prio: PrioNone}
	if s != want {
		t.Errorf("parsed %+v, want %+v", s, want)
	}
	// Omitted keys default to v1 (the base).
	if s := mustShape(t, "seg=1"); s != (Shape{SegHeight: 1, TreeArity: 2, SortFission: true, WriteFission: true, WriteSpan: 1, Prio: PrioPaper}) {
		t.Errorf("seg=1 defaults: %+v", s)
	}
	if s := mustShape(t, "seg=full"); s.SegHeight != 0 {
		t.Errorf("seg=full: height %d, want 0", s.SegHeight)
	}
	// Every error embeds the grammar listing.
	for _, bad := range []string{
		"", "seg", "seg=x", "seg=-1", "bogus=1", "fission=maybe", "prio=fifo",
		"span=0", "tree=1", "span=2,fission=writes", "span=2", // span needs fused writes
	} {
		_, err := ParseShape(bad)
		if err == nil {
			t.Errorf("ParseShape(%q) succeeded, want error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "accepted recipes:") {
			t.Errorf("ParseShape(%q) error lacks grammar: %v", bad, err)
		}
	}
}

func TestParseNamedAndFlat(t *testing.T) {
	for _, name := range []string{"v1", "v2", "v3", "v4", "v5"} {
		r, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%s): %v", name, err)
		}
		if r.Name != name {
			t.Errorf("Parse(%s).Name = %q", name, r.Name)
		}
	}
	r, err := Parse("seg=1,fission=none")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.MustShape().Normalize(), mustRecipe(t, "v5").MustShape().Normalize(); got != want {
		t.Errorf("flat v5 spelling resolved to %v, want %v", got, want)
	}
	if _, err := Parse("v9"); err == nil || !strings.Contains(err.Error(), "accepted recipes:") {
		t.Errorf("Parse(v9): %v, want unknown-variant error with grammar", err)
	}
}

func TestFromShapeRoundTrip(t *testing.T) {
	shapes := []string{
		"seg=full", "seg=1", "seg=4,tree=3", "seg=2,fission=none",
		"seg=1,fission=sorts,span=4", "prio=none", "seg=8,tree=8,fission=none,prio=none,span=2",
	}
	for _, src := range shapes {
		s := mustShape(t, src)
		r, err := FromShape(s)
		if err != nil {
			t.Fatalf("FromShape(%s): %v", src, err)
		}
		if got := r.MustShape().Normalize(); got != s.Normalize() {
			t.Errorf("%s: round trip %v, want %v", src, got, s.Normalize())
		}
		if r.Name != s.Canon() {
			t.Errorf("%s: recipe name %q, want canon %q", src, r.Name, s.Canon())
		}
	}
	// Canonical strings re-parse to the same shape.
	for _, src := range shapes {
		s := mustShape(t, src)
		back, err := ParseShape(s.Canon())
		if err != nil {
			t.Fatalf("reparse %q: %v", s.Canon(), err)
		}
		if back.Normalize() != s.Normalize() {
			t.Errorf("canon %q reparsed to %v", s.Canon(), back)
		}
	}
}

func TestAppendDoesNotAliasPasses(t *testing.T) {
	base := Recipe{Passes: make([]Pass, 0, 8)}
	base.Passes = append(base.Passes, SplitChain{Height: 1})
	a, err := base.Append(FuseSorts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := base.Append(FuseWrites{})
	if err != nil {
		t.Fatal(err)
	}
	if a.MustShape() == b.MustShape() {
		t.Error("branched appends collided (shared backing array)")
	}
	if got, want := a.MustShape(), mustRecipe(t, "v5").MustShape(); got != want {
		t.Errorf("append branch a: %v, want v5 %v", got, want)
	}
}

func mustShape(t *testing.T, src string) Shape {
	t.Helper()
	s, err := ParseShape(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRecipe(t *testing.T, name string) Recipe {
	t.Helper()
	r, err := Parse(name)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
