package netrun

import (
	"math"
	"os"
	"testing"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/molecule"
	"parsec/internal/tce"
)

// TestMain completes the self-exec loop: a test binary relaunched by
// StartProcesses runs one worker rank and exits instead of the tests.
func TestMain(m *testing.M) {
	MaybeWorkerMain()
	os.Exit(m.Run())
}

// refEnergy computes the single-process reference energy for a preset
// and variant.
func refEnergy(t *testing.T, preset, variant string) float64 {
	t.Helper()
	sys, err := molecule.Preset(preset)
	if err != nil {
		t.Fatal(err)
	}
	w := tce.Inspect(tce.T2_7(sys), nil)
	spec, err := ccsd.VariantByName(variant)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ccsd.CompileWorkload(w, spec, ccsd.Options{Nodes: 1}).Execute(ccsd.ExecConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	return res.Energy
}

// TestProcessesBenzeneThreeWorkers is the acceptance run: benzene CCSD
// across three real OS processes over loopback sockets, with the
// coordinator and GA server in the test process. The energy must match
// the single-process run to 1e-12.
func TestProcessesBenzeneThreeWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process benzene run in -short mode")
	}
	want := refEnergy(t, "benzene", "v5")
	spec := JobSpec{Preset: "benzene", Variant: "v5"}
	pol, err := spec.Policy()
	if err != nil {
		t.Fatal(err)
	}
	l, err := StartProcesses(Config{
		Ranks:    3,
		Workers:  2,
		Policy:   pol,
		Deadline: 2 * time.Minute,
	}, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkEnergy(t, res, want)
	if res.Ranks != 3 || res.Takeovers != 0 {
		t.Fatalf("ranks %d takeovers %d", res.Ranks, res.Takeovers)
	}
	if len(res.PerRank) != 3 {
		t.Fatalf("collected %d rank reports, want 3", len(res.PerRank))
	}
	for r, rep := range res.PerRank {
		if rep.Tasks == 0 {
			t.Errorf("rank %d reports zero tasks", r)
		}
	}
}

// TestProcessChaosKillAndSever is the chaos run: three worker
// processes, one inter-rank link severed mid-stream, and one worker
// killed with SIGKILL once the job is measurably under way. Recovery
// must re-dispatch the dead rank's subgraph to an heir and the energy
// must match the fault-free single-process run to 1e-12.
func TestProcessChaosKillAndSever(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos run in -short mode")
	}
	want := refEnergy(t, "water", "v2")
	spec := JobSpec{Preset: "water", Variant: "v2"}
	pol, err := spec.Policy()
	if err != nil {
		t.Fatal(err)
	}
	l, err := StartProcesses(Config{
		Ranks:    3,
		Workers:  2,
		Policy:   pol,
		Recover:  true,
		Sever:    &SeverSpec{From: 0, To: 1, AfterFrames: 10},
		Deadline: 2 * time.Minute,
	}, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait drives the coordinator's protocol (welcome, termination,
	// flush), so it must run while we watch progress and deliver the
	// kill from the outside.
	type waitOut struct {
		res *Result
		err error
	}
	waitCh := make(chan waitOut, 1)
	go func() {
		res, err := l.Wait()
		waitCh <- waitOut{res, err}
	}()
	// Kill rank 2 once a tenth of the job has completed: late enough
	// that every rank is registered and working, early enough that the
	// victim still owns unfinished tasks for the heir to re-execute.
	total := l.co.spec.numInstances
	deadline := time.Now().Add(time.Minute)
	for l.co.nComplete() < total/10 {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck at %d/%d tasks before kill", l.co.nComplete(), total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := l.Kill(2); err != nil {
		t.Fatal(err)
	}
	out := <-waitCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res
	checkEnergy(t, res, want)
	if res.Takeovers == 0 {
		t.Error("worker killed but no takeover recorded")
	}
	var severs int64
	for _, rep := range res.PerRank {
		severs += rep.Comm.Severs
	}
	if severs == 0 {
		t.Error("sever configured but never triggered")
	}
	if d := math.Abs(res.Energy - want); d > energyTol {
		t.Fatalf("post-recovery energy off by %.3e", d)
	}
}
