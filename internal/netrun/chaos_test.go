package netrun

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/molecule"
	"parsec/internal/tce"
)

// TestMain completes the self-exec loop: a test binary relaunched by
// StartProcesses runs one worker rank and exits instead of the tests.
// A race-instrumented process sleeps up to a second on its way out (the
// race runtime's atexit_sleep_ms), and Launch.Wait waits for the worker
// processes to exit, so every worker this binary launches gets that
// sleep switched off. The variable is read at process start: the test
// process itself keeps its own setting.
func TestMain(m *testing.M) {
	MaybeWorkerMain()
	os.Setenv("GORACE", strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	os.Exit(m.Run())
}

// planFor compiles spec for a run on ranks ranks, the plan
// StartProcesses takes.
func planFor(t *testing.T, spec JobSpec, ranks int) *ccsd.CompiledPlan {
	t.Helper()
	plan, err := spec.plan(ranks)
	if err != nil {
		t.Fatal(err)
	}
	return plan
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
	}, planFor(t, spec, 3))
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
	}, planFor(t, spec, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Wait drives the coordinator's protocol (welcome, termination), so
	// it must run while we watch progress and deliver the kill from the
	// outside.
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

// TestKilledRankFailsRunWithoutRecover kills one of three worker
// processes with Recover off. Nothing can take the dead rank's work
// over, so the run must fail, and promptly. The rank is frozen
// (SIGSTOP) as soon as the coordinator has counted a completion, so the
// job, which is a few milliseconds long, cannot finish before the kill:
// the test checks that it has not, and only then kills the frozen rank.
// Its connection to the coordinator closes, the coordinator's probe
// dial is refused (coordinator.probe), and the coordinator notes the
// rank as gone and fails the run, whether or not any rank owes the dead
// one a frame. A peer whose redial to the dead rank is refused fails
// too. After Wait errors the coordinator must have noted rank 2 as
// gone, and Wait must have returned well inside awaitReports'
// reportWait, which a run that waited for the dead rank's report sits
// out whole. The error must name the dead rank, and the coordinator by
// name, never as rank -1.
func TestKilledRankFailsRunWithoutRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	spec := JobSpec{Preset: "water", Variant: "v2"}
	pol, err := spec.Policy()
	if err != nil {
		t.Fatal(err)
	}
	l, err := StartProcesses(Config{Ranks: 3, Workers: 2, Policy: pol, Deadline: time.Minute}, planFor(t, spec, 3))
	if err != nil {
		t.Fatal(err)
	}
	waitCh := make(chan error, 1)
	go func() {
		_, err := l.Wait()
		waitCh <- err
	}()
	total := l.co.spec.numInstances
	deadline := time.Now().Add(time.Minute)
	for l.co.nComplete() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck at 0/%d tasks before kill", total)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := l.cmds[2].Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	// Rank 2's share cannot run while it is stopped, so the count stays
	// short of the job however long the other ranks take.
	time.Sleep(20 * time.Millisecond)
	if n := l.co.nComplete(); n == total {
		t.Fatalf("all %d tasks completed with rank 2 stopped", total)
	}
	if err := l.Kill(2); err != nil {
		t.Fatal(err)
	}
	killed := time.Now()
	select {
	case err := <-waitCh:
		if err == nil {
			t.Fatal("run succeeded although rank 2 was killed and Recover is off")
		}
		if msg := err.Error(); !strings.Contains(msg, "rank 2") || strings.Contains(msg, "rank -1") {
			t.Errorf("the run's error names its ranks wrongly: %v", err)
		}
		l.co.mu.Lock()
		gone := l.co.gone[2]
		l.co.mu.Unlock()
		if !gone {
			t.Error("the run failed without the coordinator noting rank 2 as gone")
		}
		t.Logf("run failed %v after the kill: %v", time.Since(killed).Round(time.Millisecond), err)
	case <-time.After(reportWait / 2):
		for _, cmd := range l.cmds {
			cmd.Process.Kill()
		}
		l.co.fail(errors.New("run outlived the test"))
		t.Fatalf("run still going %v after a rank was killed with Recover off", reportWait/2)
	}
}

// TestRanksExitWhenCoordinatorDies closes the coordinator's transport
// abruptly once a tenth of the job has completed — its listener and
// every connection gone at once, as when its process is killed — and
// requires both rank processes to exit on their own within 2 s, not at
// their deadline: a rank whose dial to the coordinator is refused fails.
func TestRanksExitWhenCoordinatorDies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run in -short mode")
	}
	spec := JobSpec{Preset: "benzene", Variant: "v5"}
	pol, err := spec.Policy()
	if err != nil {
		t.Fatal(err)
	}
	l, err := StartProcesses(Config{Ranks: 2, Workers: 1, Policy: pol, Deadline: time.Minute}, planFor(t, spec, 2))
	if err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, len(l.cmds))
	for _, cmd := range l.cmds {
		go func() { exited <- cmd.Wait() }()
	}
	// wait drives the protocol (welcome, termination) the ranks need. Once
	// the test fails the coordinator below it returns on its own; nothing
	// here waits for it.
	go l.co.wait()

	total := l.co.spec.numInstances
	deadline := time.Now().Add(time.Minute)
	for l.co.nComplete() < total/10 {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck at %d/%d tasks", l.co.nComplete(), total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	l.co.tp.close()
	died := time.Now()
	if n := l.co.nComplete(); n == total {
		t.Fatalf("all %d tasks completed before the coordinator died", n)
	}
	defer l.co.fail(errors.New("coordinator closed by the test"))

	timeout := time.After(2 * time.Second)
	for range l.cmds {
		select {
		case err := <-exited:
			if err == nil {
				t.Error("a rank exited cleanly although its coordinator died mid-run")
			}
		case <-timeout:
			for _, cmd := range l.cmds {
				cmd.Process.Kill()
			}
			t.Fatal("rank processes still running 2 s after their coordinator died")
		}
	}
	t.Logf("both ranks exited within %v of the coordinator's death", time.Since(died).Round(time.Millisecond))
}

// TestConfigSurvivesProcessBoundary pins what a worker process gets of
// its Config: StartProcesses ships it as JSON and MaybeWorkerMain reads
// it back, so every field not tagged json:"-" must survive that round
// trip. Each such field — recursively, through pointers, slices and
// nested structs — is set to a non-zero value; a new field of a type the
// JSON cannot carry, or tagged away by mistake, fails here instead of
// running silently at its zero value on the ranks. The tagged fields are
// exactly the coordinator-side Cancel and the in-process SchedObserver.
func TestConfigSurvivesProcessBoundary(t *testing.T) {
	var cfg Config
	v := reflect.ValueOf(&cfg).Elem()
	var tagged []string
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Tag.Get("json") == "-" {
			tagged = append(tagged, f.Name)
			continue
		}
		fillNonZero(t, f.Name, v.Field(i))
		if v.Field(i).IsZero() {
			t.Fatalf("%s: still zero after filling", f.Name)
		}
	}
	if want := []string{"Cancel", "SchedObserver"}; !slices.Equal(tagged, want) {
		t.Errorf("fields tagged json:\"-\" = %v, want %v", tagged, want)
	}
	buf, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got Config
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	g := reflect.ValueOf(got)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; !reflect.DeepEqual(g.Field(i).Interface(), v.Field(i).Interface()) {
			t.Errorf("%s: sent %+v, received %+v", name, v.Field(i).Interface(), g.Field(i).Interface())
		}
	}
}

// fillNonZero sets every settable leaf under v to a non-zero value
// derived from its path, so two fields of one type still differ.
func fillNonZero(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(len(path)))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(len(path)))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(len(path)) / 64)
	case reflect.String:
		v.SetString(path)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, path, v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, path+"[0]", v.Index(0))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fillNonZero(t, path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		}
	default:
		t.Fatalf("%s: no non-zero value for a %v field; tag it json:\"-\" if it cannot cross the process boundary", path, v.Kind())
	}
}
