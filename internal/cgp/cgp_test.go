package cgp

import (
	"runtime"
	"strings"
	"testing"

	"parsec/internal/cluster"
	"parsec/internal/ga"
	"parsec/internal/molecule"
	"parsec/internal/sim"
	"parsec/internal/tce"
	"parsec/internal/trace"
)

func testSetup(nodes, cores int) (*tce.Workload, *cluster.Machine, *ga.Sim) {
	return setupFor(molecule.Water631G(), nodes, cores)
}

// setupFor inspects sys for a fresh machine of nodes x cores.
func setupFor(sys *molecule.System, nodes, cores int) (*tce.Workload, *cluster.Machine, *ga.Sim) {
	cfg := cluster.CascadeLike()
	cfg.Nodes = nodes
	cfg.CoresPerNode = cores
	cfg.JitterFrac = 0
	e := sim.NewEngine()
	m := cluster.New(e, cfg)
	gs := ga.NewSim(m)
	k := tce.T2_7(sys)
	w := tce.Inspect(k, func(b tce.BlockRef) int {
		return gs.Distribution().Owner(b.Tensor, b.Key)
	})
	return w, m, gs
}

func TestRunExecutesAllChains(t *testing.T) {
	w, m, gs := testSetup(2, 2)
	res, err := Run(w, m, gs, Config{RanksPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chains != w.NumChains() {
		t.Errorf("chains = %d, want %d", res.Chains, w.NumChains())
	}
	executed := 0
	for _, n := range res.ChainsByRank {
		executed += n
	}
	if executed != w.NumChains() {
		t.Errorf("executed %d chains, want %d", executed, w.NumChains())
	}
	if res.Gets != 2*int64(w.Stats().Gemms) {
		t.Errorf("gets = %d, want %d", res.Gets, 2*w.Stats().Gemms)
	}
	if res.Adds != int64(w.Stats().Sorts) {
		t.Errorf("adds = %d, want %d", res.Adds, w.Stats().Sorts)
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
}

// TestUntracedRunFormatsNothing: a run nobody traces records nothing, so
// what it allocates does not grow with the steps it executes — benzene
// runs 1,902 steps on 2 nodes x 2 ranks to water's 878. A label
// formatted per step before the trace check showed as one allocation
// per step.
func TestUntracedRunFormatsNothing(t *testing.T) {
	allocs := func(sys *molecule.System) uint64 {
		w, m, gs := setupFor(sys, 2, 2)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Run(w, m, gs, Config{RanksPerNode: 2})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	water, benzene := allocs(molecule.Water631G()), allocs(molecule.Benzene631G())
	t.Logf("allocations per untraced Run: water %d, benzene %d", water, benzene)
	if benzene > water+32 {
		t.Errorf("an untraced benzene Run allocates %d times, water %d: more steps should not cost more allocations", benzene, water)
	}
}

func TestTraceShowsNoOverlapPattern(t *testing.T) {
	w, m, gs := testSetup(2, 1)
	tr := trace.New()
	if _, err := Run(w, m, gs, Config{RanksPerNode: 1, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// One span per step, each a distinct instance of the run's skeleton.
	st := w.Stats()
	if want := w.NumChains() + 3*st.Gemms + 2*st.Sorts; tr.Len() != want {
		t.Errorf("%d spans, want %d steps", tr.Len(), want)
	}
	seen := map[int]bool{}
	for _, ev := range tr.Events() {
		if ev.Class == "task" || seen[ev.Seq] {
			t.Fatalf("step %+v unnamed or recorded twice", ev)
		}
		seen[ev.Seq] = true
	}
	// The defining property of the original code: communication (GETs)
	// happens on the worker thread, so comm and compute on a rank never
	// overlap. With 1 rank per node, per-node overlap must be zero.
	comm := map[string]bool{"READA": true, "READB": true, "WRITE": true}
	commTime, overlapped := tr.OverlapStats(comm)
	if commTime == 0 {
		t.Fatal("no communication recorded")
	}
	if overlapped != 0 {
		t.Errorf("overlap = %d ns on single-rank nodes, want 0", overlapped)
	}
}

func TestMoreRanksFasterUntilSaturation(t *testing.T) {
	run := func(ranks int) sim.Time {
		w, m, gs := testSetup(2, ranks)
		res, err := Run(w, m, gs, Config{RanksPerNode: ranks})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	t1, t2 := run(1), run(2)
	if t2 >= t1 {
		t.Errorf("2 ranks (%v) not faster than 1 (%v)", t2, t1)
	}
}

func TestLevelsAddSynchronization(t *testing.T) {
	w, m, gs := testSetup(2, 2)
	res1, err := Run(w, m, gs, Config{RanksPerNode: 2, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	w2, m2, gs2 := testSetup(2, 2)
	res7, err := Run(w2, m2, gs2, Config{RanksPerNode: 2, Levels: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res7.Makespan < res1.Makespan {
		t.Errorf("7 levels (%v) faster than 1 level (%v)", res7.Makespan, res1.Makespan)
	}
	// All chains still execute.
	total := 0
	for _, n := range res7.ChainsByRank {
		total += n
	}
	if total != w2.NumChains() {
		t.Errorf("levels dropped chains: %d of %d", total, w2.NumChains())
	}
}

func TestDeterministic(t *testing.T) {
	run := func() sim.Time {
		w, m, gs := testSetup(3, 2)
		res, err := Run(w, m, gs, Config{RanksPerNode: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

func TestInvalidConfig(t *testing.T) {
	w, m, gs := testSetup(1, 1)
	if _, err := Run(w, m, gs, Config{}); err == nil {
		t.Error("zero ranks accepted")
	}
}

// TestStuckRankFailsRun: the engine does not track its actors, so Run
// itself must notice a rank that never finished and name it. An engine
// stopped mid-run leaves every rank waiting.
func TestStuckRankFailsRun(t *testing.T) {
	w, m, gs := testSetup(2, 2)
	m.Eng.Schedule(10*sim.Microsecond, m.Eng.Stop)
	_, err := Run(w, m, gs, Config{RanksPerNode: 2})
	if err == nil || !strings.Contains(err.Error(), "4 rank(s) never finished: [n0.r0 n0.r1 n1.r0 n1.r1]") {
		t.Errorf("Run of a stopped engine: %v, want every rank named as never finished", err)
	}
}
