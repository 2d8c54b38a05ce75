package ccsd

import (
	"encoding/json"
	"os"
	"testing"

	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/ptg/ptgtest"
	"parsec/internal/tce"
	"parsec/internal/xform"
)

// variantSig is one row of testdata/variant_sigs.json: the canonical
// graph signature a hand-written variant builder produced at the commit
// that still carried them. The goldens were generated BEFORE the
// refactor to transformation passes, so matching them proves the recipe
// pipeline regenerates the historical graphs exactly — same instances,
// edges, flows, priorities, affinities, costs, and byte accounting.
type variantSig struct {
	Kernel  string `json:"kernel"`
	Preset  string `json:"preset"`
	Nodes   int    `json:"nodes"`
	Variant string `json:"variant"`
	Seg     int    `json:"seg,omitempty"`
	Span    int    `json:"span,omitempty"`
	Tasks   int    `json:"tasks"`
	Edges   int    `json:"edges"`
	SHA256  string `json:"sha256"`
}

// TestRecipesReproduceHandWrittenGraphs is the tentpole equivalence
// proof: every golden configuration (v1–v5 across systems, kernels,
// node counts, plus segment-height and write-span overrides) must
// rebuild to a bit-identical canonical signature from its recipe.
func TestRecipesReproduceHandWrittenGraphs(t *testing.T) {
	forEachGolden(t, func(t *testing.T, gs variantSig, w *tce.Workload, spec VariantSpec, opts Options) {
		sig, err := ptg.Signature(BuildGraph(w, spec, opts))
		if err != nil {
			t.Fatal(err)
		}
		if sig.Tasks != gs.Tasks || sig.Edges != gs.Edges {
			t.Fatalf("tasks/edges %d/%d, want %d/%d", sig.Tasks, sig.Edges, gs.Tasks, gs.Edges)
		}
		if sig.SHA256 != gs.SHA256 {
			t.Errorf("signature %s != golden %s (graph structure drifted from the hand-written builder)",
				sig.SHA256[:16], gs.SHA256[:16])
		}
	})
}

// TestSkeletonBoundGraphsExecuteIdentically: for every golden
// configuration, a graph carrying a skeleton resolved from an earlier
// binding of its plan yields the same instances and, driven serially,
// the same deliveries as an unbound build whose tracker inspects the
// graph itself.
func TestSkeletonBoundGraphsExecuteIdentically(t *testing.T) {
	forEachGolden(t, func(t *testing.T, gs variantSig, w *tce.Workload, spec VariantSpec, opts Options) {
		plan := CompileWorkload(w, spec, opts)
		plan.NewGraph(nil) // the first binding resolves the skeleton
		ptgtest.SameExecution(t, plan.NewGraph(nil), BuildGraph(w, spec, opts))
	})
}

// override applies a segment-height and a write-span override to a
// variant the way every caller now does: as one more pass each, zero
// meaning "keep the recipe's value". The golden rows were recorded when
// these were Options fields; matching them is what shows the pass
// spelling builds the same graphs.
func override(t testing.TB, spec VariantSpec, seg, span int) VariantSpec {
	t.Helper()
	var passes []xform.Pass
	if seg > 0 {
		passes = append(passes, xform.SplitChain{Height: seg})
	}
	if span > 0 {
		passes = append(passes, xform.SpanWrites{Span: span})
	}
	if len(passes) == 0 {
		return spec
	}
	r, err := spec.Append(passes...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// forEachGolden runs f as a subtest for every row of
// testdata/variant_sigs.json with the row's inspected workload, variant
// and graph options.
func forEachGolden(t *testing.T, f func(t *testing.T, gs variantSig, w *tce.Workload, spec VariantSpec, opts Options)) {
	buf, err := os.ReadFile("testdata/variant_sigs.json")
	if err != nil {
		t.Fatal(err)
	}
	var sigs []variantSig
	if err := json.Unmarshal(buf, &sigs); err != nil {
		t.Fatal(err)
	}
	if len(sigs) < 20 {
		t.Fatalf("only %d golden signatures", len(sigs))
	}
	workloads := map[string]*tce.Workload{}
	for _, gs := range sigs {
		gs := gs
		key := gs.Kernel + "/" + gs.Preset
		w := workloads[key]
		if w == nil {
			sys, err := molecule.Preset(gs.Preset)
			if err != nil {
				t.Fatal(err)
			}
			k, err := tce.KernelByName(gs.Kernel, sys)
			if err != nil {
				t.Fatal(err)
			}
			w = tce.Inspect(k, nil)
			workloads[key] = w
		}
		name := gs.Kernel + "/" + gs.Preset + "/" + gs.Variant
		t.Run(name, func(t *testing.T) {
			spec, err := VariantByName(gs.Variant)
			if err != nil {
				t.Fatal(err)
			}
			f(t, gs, w, override(t, spec, gs.Seg, gs.Span), Options{Nodes: gs.Nodes})
		})
	}
}

// TestFlatRecipeSpellingsMatchNamedVariants: a variant written as an
// explicit pass list or flat grammar string builds the same graph as
// its v-name. This is satellite coverage for the recipe grammar: the
// named recipes carry no hidden state the grammar cannot spell.
func TestFlatRecipeSpellingsMatchNamedVariants(t *testing.T) {
	w := waterWorkload()
	spellings := map[string]string{
		"v1": "seg=full",
		"v2": "seg=1,fission=sorts,prio=none",
		"v3": "seg=1,fission=writes",
		"v4": "seg=1,fission=sorts",
		"v5": "seg=1,fission=none",
	}
	for name, flat := range spellings {
		named, err := VariantByName(name)
		if err != nil {
			t.Fatal(err)
		}
		derived, err := VariantByName(flat)
		if err != nil {
			t.Fatalf("%s as %q: %v", name, flat, err)
		}
		gn := BuildGraph(w, named, Options{Nodes: 4})
		gd := BuildGraph(w, derived, Options{Nodes: 4})
		sn, err := ptg.Signature(gn)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := ptg.Signature(gd)
		if err != nil {
			t.Fatal(err)
		}
		if sn.SHA256 != sd.SHA256 {
			t.Errorf("%s: flat spelling %q builds a different graph (%s vs %s)",
				name, flat, sd.SHA256[:16], sn.SHA256[:16])
		}
	}
}

// TestNewShapesMatchReference runs shapes the paper never hand-derived
// — wider reduction trees, intermediate segment heights from
// FuseSegments, spans on derived recipes — with real arithmetic. The
// §IV-A invariant extends across the whole recipe space: every shape
// computes the reference energy to 1e-12.
func TestNewShapesMatchReference(t *testing.T) {
	w := waterWorkload()
	ref := ReferenceEnergy(w)
	for _, src := range []string{
		"seg=1,tree=3",
		"seg=1,tree=4,fission=none",
		"seg=2,tree=3,fission=sorts",
		"seg=1,tree=8,fission=sorts,span=3",
		"seg=3,tree=2,fission=none,prio=none,span=2",
	} {
		spec, err := VariantByName(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := execute(w, spec, 4)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if d := EnergyRelDiff(res.Energy, ref); d > EnergyTol {
			t.Errorf("%s: energy %.15g vs reference %.15g (rel %g)", src, res.Energy, ref, d)
		}
	}
	// FuseSegments composes: split to 1 then fuse by 2 equals seg=2.
	r, err := xform.Recipe{Passes: []xform.Pass{xform.SplitChain{Height: 1}, xform.FuseSegments{Factor: 2}}}.Shape()
	if err != nil {
		t.Fatal(err)
	}
	if r.SegHeight != 2 {
		t.Fatalf("FuseSegments landed on seg=%d, want 2", r.SegHeight)
	}
	res, err := execute(w, mustParse(t, "seg=2"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := EnergyRelDiff(res.Energy, ref); d > EnergyTol {
		t.Errorf("fused-segment shape: energy %.15g vs reference %.15g", res.Energy, ref)
	}
}

// TestChainPlanEdgeCases covers the segment math the FuseSegments pass
// leans on: heights above the chain length, single-GEMM chains, and
// h == n-1, plus reduction-tree widths at non-power-of-arity segment
// counts.
func TestChainPlanEdgeCases(t *testing.T) {
	chain := func(n int) *tce.ChainMeta { return &tce.ChainMeta{Gemms: make([]tce.GemmMeta, n)} }

	// h > n clamps to one segment, no tree.
	p := newChainPlan(chain(5), 9, 2)
	if p.h != 5 || p.m != 1 || p.top != 0 {
		t.Errorf("h>n: h=%d m=%d top=%d, want 5,1,0", p.h, p.m, p.top)
	}
	// n == 1: a single GEMM is one segment at any height.
	for _, h := range []int{0, 1, 3} {
		p = newChainPlan(chain(1), h, 2)
		if p.h != 1 || p.m != 1 || p.top != 0 || !p.isSegEnd(0) {
			t.Errorf("n=1 h=%d: %+v", h, p)
		}
	}
	// h == n-1: two segments, one of height 1; the tree has one level.
	p = newChainPlan(chain(6), 5, 2)
	if p.m != 2 || p.top != 1 || p.segLast(0) != 4 || p.segLast(1) != 5 {
		t.Errorf("h=n-1: m=%d top=%d lasts=%d,%d", p.m, p.top, p.segLast(0), p.segLast(1))
	}
	// Non-power-of-arity widths: ceil division per level.
	p = newChainPlan(chain(11), 1, 3)
	if got := p.width; got[0] != 11 || got[1] != 4 || got[2] != 2 || got[3] != 1 || p.top != 3 {
		t.Errorf("m=11 arity=3: width=%v top=%d", got, p.top)
	}
	p = newChainPlan(chain(10), 1, 4)
	if got := p.width; got[0] != 10 || got[1] != 3 || got[2] != 1 || p.top != 2 {
		t.Errorf("m=10 arity=4: width=%v top=%d", got, p.top)
	}
	// Arity wider than the segment count: a single-level tree.
	p = newChainPlan(chain(5), 1, 8)
	if p.top != 1 || p.width[1] != 1 {
		t.Errorf("m=5 arity=8: width=%v top=%d", p.width, p.top)
	}
	// Total width must cover every segment exactly once per level.
	for _, arity := range []int{2, 3, 4, 5} {
		p = newChainPlan(chain(13), 1, arity)
		for lvl := 1; lvl <= p.top; lvl++ {
			below, here := p.width[lvl-1], p.width[lvl]
			if want := (below + arity - 1) / arity; here != want {
				t.Errorf("arity %d lvl %d: width %d, want ceil(%d/%d)=%d", arity, lvl, here, below, arity, want)
			}
		}
		if p.width[p.top] != 1 {
			t.Errorf("arity %d: tree does not converge: %v", arity, p.width)
		}
	}
}

func mustParse(t *testing.T, src string) xform.Recipe {
	t.Helper()
	r, err := xform.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
