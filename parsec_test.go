package parsec

import (
	"math"
	"testing"

	"parsec/internal/tce"
)

// TestFacadeQuickstart exercises the public graph-building and execution
// API end to end, mirroring examples/quickstart.
func TestFacadeQuickstart(t *testing.T) {
	const n = 8
	g := NewGraph("facade")
	sum := 0
	c := g.Class("ADD")
	c.Domain = func(emit func(Args)) {
		for i := 0; i < n; i++ {
			emit(A1(i))
		}
	}
	c.Priority = func(a Args) int64 { return int64(n - a[0]) }
	c.Body = func(ctx *Ctx) { sum += ctx.Args[0] }
	rep, err := Run(g, RunConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != n || sum != n*(n-1)/2 {
		t.Errorf("tasks=%d sum=%d", rep.Tasks, sum)
	}
}

func TestFacadeCCSDReal(t *testing.T) {
	sys, err := Molecule("water")
	if err != nil {
		t.Fatal(err)
	}
	w := Inspect(sys)
	ref := ReferenceEnergy(w)
	v5, err := Variant("v5")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCCSD(w, v5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-ref) > 1e-12*math.Abs(ref) {
		t.Errorf("energy %v vs reference %v", res.Energy, ref)
	}
}

func TestFacadeSimulate(t *testing.T) {
	sys, err := Molecule("water")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Cascade()
	cfg.Nodes = 4
	v1, _ := Variant("v1")
	res, err := Simulate(sys, v1, cfg, SimConfig{CoresPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
	base, err := SimulateBaseline(sys, cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base <= 0 {
		t.Error("zero baseline")
	}
}

func TestFacadeVariants(t *testing.T) {
	vs := Variants()
	if len(vs) != 5 {
		t.Fatalf("variants = %d", len(vs))
	}
	if _, err := Variant("nope"); err == nil {
		t.Error("bad variant accepted")
	}
	if _, err := Molecule("nope"); err == nil {
		t.Error("bad molecule accepted")
	}
}

func TestFacadeJDF(t *testing.T) {
	src := "T(i)\n i = 0 .. n - 1\nBODY tick\nEND\n"
	count := 0
	g, err := CompileJDF("facade-jdf", src, JDFEnv{
		Consts: map[string]int{"n": 5},
		Bodies: map[string]func(*Ctx){"tick": func(ctx *Ctx) { count++ }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, RunConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("count = %d", count)
	}
	if _, err := CompileJDF("bad", "T(", JDFEnv{}); err == nil {
		t.Error("bad source compiled")
	}
}

func TestFacadeBaselineWithTrace(t *testing.T) {
	sys, _ := Molecule("water")
	cfg := Cascade()
	cfg.Nodes = 2
	tr := NewTrace()
	sec, err := SimulateBaseline(sys, cfg, 2, tr)
	if err != nil {
		t.Fatal(err)
	}
	if sec <= 0 || tr.Len() == 0 {
		t.Errorf("sec=%v events=%d", sec, tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// TestFacadeInspectT1: the facade runs a workload of the T1-shaped
// kernel as it runs T2_7's.
func TestFacadeInspectT1(t *testing.T) {
	sys, _ := Molecule("water")
	w := tce.Inspect(tce.T1_2(sys), nil)
	if w.NumChains() == 0 {
		t.Error("empty T1 workload")
	}
	ref := ReferenceEnergy(w)
	v3, _ := Variant("v3")
	res, err := RunCCSD(w, v3, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Energy - ref
	if d > 1e-12 || d < -1e-12 {
		t.Errorf("T1 energy %v vs %v", res.Energy, ref)
	}
}
