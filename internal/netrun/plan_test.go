package netrun

import (
	"sync"
	"testing"

	"parsec/internal/ccsd"
	"parsec/internal/cluster"
	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/ptg/ptgtest"
	"parsec/internal/xform"
)

// TestOnePlanThreeBackends compiles each recipe once for two nodes and
// feeds that one plan to all three executors. The plan's bound graph
// must be the graph a fresh BuildGraph makes; the simulator, a 2-rank
// netrun run and the plan's skeleton must agree on the task count; the
// netrun energy must match Execute's; and several goroutines binding a
// cold plan at once — what in-process ranks do — must each get a graph
// that executes like an unbound build (run under -race).
func TestOnePlanThreeBackends(t *testing.T) {
	sys := molecule.Water631G()
	const ranks = 2
	mcfg := cluster.CascadeLike()
	mcfg.Nodes = ranks

	recipes := ccsd.Variants()
	derived, err := ccsd.VariantByName("seg=2,fission=sorts")
	if err != nil {
		t.Fatal(err)
	}
	v5, _ := ccsd.VariantByName("v5")
	spanned, err := v5.Append(xform.SpanWrites{Span: 3})
	if err != nil {
		t.Fatal(err)
	}
	recipes = append(recipes, derived, spanned)

	for _, recipe := range recipes {
		recipe := recipe
		t.Run(recipe.Name, func(t *testing.T) {
			t.Parallel()
			opts := ccsd.Options{Nodes: ranks}
			plan := ccsd.Compile(sys, recipe, opts)
			fresh := func() *ptg.Graph { return ccsd.BuildGraph(plan.Workload, recipe, opts) }

			// Cold plan, concurrent binders: one skeleton, every graph good.
			graphs := make([]*ptg.Graph, 4)
			var wg sync.WaitGroup
			for i := range graphs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					graphs[i] = plan.NewGraph(nil)
				}(i)
			}
			wg.Wait()
			for _, g := range graphs {
				ptgtest.SameExecution(t, g, fresh())
			}

			want, err := ptg.Signature(fresh())
			if err != nil {
				t.Fatal(err)
			}
			got, err := ptg.Signature(plan.NewGraph(nil))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("plan graph signature %s (%d tasks), fresh build %s (%d tasks)",
					got.SHA256[:12], got.Tasks, want.SHA256[:12], want.Tasks)
			}
			tasks, err := plan.NumTasks()
			if err != nil {
				t.Fatal(err)
			}

			simRes, err := plan.Simulate(mcfg, ccsd.SimRunConfig{CoresPerNode: 2})
			if err != nil {
				t.Fatal(err)
			}
			netRes, err := RunPlan(Config{Ranks: ranks, Workers: 2, Policy: recipe.Policy()}, plan)
			if err != nil {
				t.Fatal(err)
			}
			if simRes.Tasks != tasks || netRes.Tasks != tasks || want.Tasks != tasks {
				t.Errorf("task counts: skeleton %d, signature %d, simulated %d, netrun %d",
					tasks, want.Tasks, simRes.Tasks, netRes.Tasks)
			}

			shared, err := ccsd.Compile(sys, recipe, ccsd.Options{Nodes: 1}).Execute(ccsd.ExecConfig{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			checkEnergy(t, netRes, shared.Energy)
		})
	}

	// A plan runs only at the size it was compiled for.
	plan := ccsd.Compile(sys, v5, ccsd.Options{Nodes: 3})
	if _, err := RunPlan(Config{Ranks: ranks}, plan); err == nil {
		t.Error("a 3-node plan ran on 2 ranks")
	}
	if _, err := plan.Simulate(mcfg, ccsd.SimRunConfig{CoresPerNode: 2}); err == nil {
		t.Error("a 3-node plan simulated on a 2-node machine")
	}
}
