package ccsd

import (
	"testing"

	"parsec/internal/molecule"
	"parsec/internal/tce"
)

// compileAllocBudget bounds the allocations of one inspection plus chain
// planning, whatever the system: the metadata, the chain plans and their
// tree widths are a fixed set of arrays, each sized exactly before it is
// filled.
const compileAllocBudget = 12

// TestCompileAllocationsDoNotGrowWithChains inspects and plans water,
// benzene and beta-carotene (38, 66 and 624 chains; 228, 528 and 12,860
// GEMMs) for a split and an unsplit recipe, with and without a locator.
// Each shape must cost the same number of allocations for all three
// systems, and no more than compileAllocBudget.
func TestCompileAllocationsDoNotGrowWithChains(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	systems := []*molecule.System{molecule.Water631G(), molecule.Benzene631G(), molecule.BetaCarotene631G()}
	for _, name := range []string{"v1", "v5"} {
		spec, err := VariantByName(name)
		if err != nil {
			t.Fatal(err)
		}
		shape := spec.MustShape().Normalize()
		for _, nodes := range []int{1, 4} {
			first := -1.0
			for _, sys := range systems {
				var st tce.Stats
				allocs := testing.AllocsPerRun(2, func() {
					w := inspect(tce.T2_7(sys), nodes)
					plans(w, shape)
					st = w.Stats()
				})
				t.Logf("%s %s, %d nodes: %d chains, %d GEMMs, %.0f allocations", sys.Name, name, nodes, st.Chains, st.Gemms, allocs)
				if first < 0 {
					first = allocs
				}
				if allocs != first || allocs > compileAllocBudget {
					t.Errorf("%s %s, %d nodes: %.0f allocations for %d chains, want %.0f as for %s, at most %d",
						sys.Name, name, nodes, allocs, st.Chains, first, systems[0].Name, compileAllocBudget)
				}
			}
		}
	}
}
