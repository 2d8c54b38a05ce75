package runtime

import (
	"fmt"
	"math/rand"
	stdruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"parsec/internal/ptg"
	"parsec/internal/tensor"
	"parsec/internal/tensor/pool"
)

// spanGraph builds count independent tasks whose bodies each Span the
// given part count, running body(part) inside each part.
func spanGraph(count, parts int, body func(task, part int)) *ptg.Graph {
	g := ptg.NewGraph("span")
	c := g.Class("S")
	c.Domain = func(emit func(ptg.Args)) {
		for i := 0; i < count; i++ {
			emit(ptg.A1(i))
		}
	}
	c.Body = func(ctx *ptg.Ctx) {
		task := ctx.Args[0]
		ctx.Par.Span(parts, func(part int, _ *pool.Local) {
			body(task, part)
		})
	}
	return g
}

// TestLendSpanPartsRunOnce pins the claim protocol: every part of a
// published span executes exactly once, and the run reports the span.
func TestLendSpanPartsRunOnce(t *testing.T) {
	const parts = 16
	var counts [parts]atomic.Int32
	g := spanGraph(1, parts, func(_, part int) {
		counts[part].Add(1)
	})
	rep, err := Run(g, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("part %d ran %d times, want 1", i, c)
		}
	}
	if rep.Sched.LendSpans != 1 {
		t.Errorf("LendSpans = %d, want 1", rep.Sched.LendSpans)
	}
}

// TestLendHelpersVolunteer pins that idle workers actually claim parts:
// with one spanning task and three otherwise-idle workers, slow parts
// must be picked up by helpers and counted in LendHelped.
func TestLendHelpersVolunteer(t *testing.T) {
	const parts = 8
	g := spanGraph(1, parts, func(_, _ int) {
		time.Sleep(20 * time.Millisecond)
	})
	rep, err := Run(g, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sched.LendSpans != 1 {
		t.Errorf("LendSpans = %d, want 1", rep.Sched.LendSpans)
	}
	if rep.Sched.LendHelped == 0 {
		t.Error("LendHelped = 0: no idle worker volunteered for a 160ms span")
	}
	if rep.Sched.LendHelped > parts-1 {
		t.Errorf("LendHelped = %d exceeds the %d parts helpers could claim",
			rep.Sched.LendHelped, parts-1)
	}
}

// TestLendAllWorkersSpanningNoDeadlock is the deadlock regression: every
// worker publishes a span at the same time, so no helper is ever
// available and each spanning worker must self-claim all of its parts.
// The protocol guarantees progress with zero helpers; a lending design
// where spanners wait for volunteers would hang here.
func TestLendAllWorkersSpanningNoDeadlock(t *testing.T) {
	const workers, tasks, parts = 8, 8, 8
	var ran atomic.Int64
	g := spanGraph(tasks, parts, func(_, _ int) {
		time.Sleep(time.Millisecond)
		ran.Add(1)
	})
	rep, err := Run(g, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != tasks*parts {
		t.Errorf("ran %d parts, want %d", got, tasks*parts)
	}
	if rep.Sched.LendSpans != tasks {
		t.Errorf("LendSpans = %d, want %d", rep.Sched.LendSpans, tasks)
	}
}

// gemmChainGraph is a strictly serial chain of GEMM tasks: task i
// depends on task i-1, so graph-level parallelism is zero and worker
// lending is the only way a multi-worker run can beat one worker. Each
// body computes cs[i] += aT·b through the Ctx handles, exactly like the
// production GEMM task body. The first task waits (bounded) for its
// siblings to park: GemmP sizes its split by the workers that can
// volunteer, so this makes "helpers are parked" a fact rather than a
// race with goroutine start-up.
func gemmChainGraph(n, workers int, a, b *tensor.Matrix, cs []*tensor.Matrix) *ptg.Graph {
	g := ptg.NewGraph("gemm-chain")
	c := g.Class("G")
	c.Domain = func(emit func(ptg.Args)) {
		for i := 0; i < n; i++ {
			emit(ptg.A1(i))
		}
	}
	c.AddFlow("D", ptg.RW).
		InNew(func(args ptg.Args) bool { return args[0] == 0 }, func(ptg.Args) int64 { return 8 }).
		In(nil, func(args ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "G", Args: ptg.A1(args[0] - 1)}, "D"
		}).
		Out(func(args ptg.Args) bool { return args[0] < n-1 }, func(args ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "G", Args: ptg.A1(args[0] + 1)}, "D"
		})
	c.Body = func(ctx *ptg.Ctx) {
		if ctx.Args[0] == 0 {
			for end := time.Now().Add(5 * time.Second); ctx.Par.Workers() < workers && time.Now().Before(end); {
				time.Sleep(100 * time.Microsecond)
			}
		}
		tensor.GemmP(ctx.Par, ctx.Pool, a, b, cs[ctx.Args[0]])
		ctx.Out[0] = int64(ctx.Args[0])
	}
	return g
}

// TestLendGemmChainStress is the satellite stress case: a chain of large
// GEMMs where lending is the only available concurrency. It pins three
// things — the lent run produces bitwise-identical matrices to the
// one-worker run, a GEMM publishes a span when helpers are parked (and
// never more than one: a GEMM that finds nobody parked stays whole on
// its worker), and (on machines with enough cores to measure it) the
// eight-worker run beats the single-threaded wall clock. The lent run is
// recorded: the helpers that ran slices of a GEMM executed no task, so
// under -race and in checkSpans none of them may have touched a span
// buffer — the owning worker's included.
func TestLendGemmChainStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	const n, dim = 4, 256 // dim^3 is above the parallel cutoff
	rng := rand.New(rand.NewSource(7))
	a := tensor.NewMatrix(dim, dim)
	b := tensor.NewMatrix(dim, dim)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
		b.Data[i] = rng.NormFloat64()
	}
	run := func(workers int) ([]*tensor.Matrix, time.Duration, Report) {
		cs := make([]*tensor.Matrix, n)
		for i := range cs {
			cs[i] = tensor.NewMatrix(dim, dim)
		}
		t0 := time.Now()
		rep, err := RunRecorded(gemmChainGraph(n, workers, a, b, cs), Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		checkSpans(t, rep, n)
		return cs, time.Since(t0), rep
	}

	serialC, serialT, _ := run(1)
	lentC, lentT, rep := run(8)

	for i := range serialC {
		for j := range serialC[i].Data {
			if serialC[i].Data[j] != lentC[i].Data[j] {
				t.Fatalf("task %d: lent result differs from serial at %d: %v vs %v",
					i, j, lentC[i].Data[j], serialC[i].Data[j])
			}
		}
	}
	if sp := rep.Sched.LendSpans; sp < 1 || sp > n {
		t.Errorf("LendSpans = %d, want 1..%d (the first GEMM finds every helper parked; none publishes twice)", sp, n)
	}
	if stdruntime.NumCPU() < 4 {
		t.Skipf("only %d cpus: lent %v vs serial %v wall clock not meaningful",
			stdruntime.NumCPU(), lentT, serialT)
	}
	if lentT >= serialT {
		t.Errorf("lending did not beat single-threaded: lent %v vs serial %v", lentT, serialT)
	}
}

// TestLendSpansInsideBusyGraph pins that lending composes with normal
// graph execution: many independent spanning tasks on few workers, where
// workers alternate between running their own tasks and volunteering.
func TestLendSpansInsideBusyGraph(t *testing.T) {
	const tasks, parts = 24, 6
	var counts [tasks * parts]atomic.Int32
	g := spanGraph(tasks, parts, func(task, part int) {
		counts[task*parts+part].Add(1)
	})
	rep, err := Run(g, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("task %d part %d ran %d times, want 1", i/parts, i%parts, c)
		}
	}
	if rep.Sched.LendSpans != tasks {
		t.Errorf("LendSpans = %d, want %d", rep.Sched.LendSpans, tasks)
	}
}

// TestLendReportString pins that the lending counters surface in the
// human-readable report when present.
func TestLendReportString(t *testing.T) {
	g := spanGraph(2, 4, func(_, _ int) { time.Sleep(time.Millisecond) })
	rep, err := Run(g, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = fmt.Sprintf("%v", rep) // must not panic with the new fields
	if rep.Sched.LendSpans != 2 {
		t.Errorf("LendSpans = %d, want 2", rep.Sched.LendSpans)
	}
}
