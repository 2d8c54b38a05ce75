package netrun

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"parsec/internal/ptg"
	"parsec/internal/sched"
	"parsec/internal/tensor"
)

// parGemmDim is sized so m*n*k clears the intra-task parallel cutoff in
// GemmP — the test must exercise the code path that splits across the
// rank's workers.
const parGemmDim = 128

// parTestMatrix builds a deterministic matrix from a seed.
func parTestMatrix(seed uint64, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	x := seed
	for i := range m.Data {
		x = x*6364136223846793005 + 1442695040888963407
		m.Data[i] = float64(int64(x>>33)) / float64(1<<30)
	}
	return m
}

// TestEngineCtxParSerialGemm pins what a rank's task bodies get as
// Ctx.Par now that a rank runs on the shared executor: a non-nil
// handle onto the rank's own workers (the lender: the caller plus
// whichever of the rank's 2 workers are parked, so never 0 and never
// another rank's), and GemmP through it bitwise identical to the serial
// Gemm kernel however the parts were split. Runs across two ranks over real sockets so the
// assertion covers the actual rank execute path.
func TestEngineCtxParSerialGemm(t *testing.T) {
	a := parTestMatrix(1, parGemmDim, parGemmDim)
	b := parTestMatrix(2, parGemmDim, parGemmDim)
	want := tensor.NewMatrix(parGemmDim, parGemmDim)
	tensor.Gemm(true, false, 1, a, b, 1, want)

	const tasks, ranks, workers = 4, 2, 2
	build := func(rank int) (*ptg.Graph, error) {
		g := ptg.NewGraph("par-lend")
		tc := g.Class("CHECK")
		tc.Domain = func(emit func(ptg.Args)) {
			for i := 0; i < tasks; i++ {
				emit(ptg.A1(i))
			}
		}
		tc.Affinity = func(a ptg.Args) int { return a[0] % ranks }
		tc.AddFlow("D", ptg.Write).InNew(nil, func(ptg.Args) int64 { return 8 })
		tc.Body = func(ctx *ptg.Ctx) {
			if ctx.Par == nil {
				ctx.Fail(fmt.Errorf("task %v: Ctx.Par is nil", ctx.Args))
				return
			}
			if n := ctx.Par.Workers(); n < 1 || n > workers {
				ctx.Fail(fmt.Errorf("task %v: Ctx.Par.Workers() = %d, want 1..%d (the rank's own workers)", ctx.Args, n, workers))
				return
			}
			ta := parTestMatrix(1, parGemmDim, parGemmDim)
			tb := parTestMatrix(2, parGemmDim, parGemmDim)
			c := tensor.NewMatrix(parGemmDim, parGemmDim)
			tensor.GemmP(ctx.Par, ctx.Pool, ta, tb, c)
			for i := range c.Data {
				if c.Data[i] != want.Data[i] {
					ctx.Fail(fmt.Errorf("task %v: GemmP differs from serial Gemm at %d: %x vs %x",
						ctx.Args, i, c.Data[i], want.Data[i]))
					return
				}
			}
			ctx.Out[0] = 1
		}
		return g, nil
	}

	res, err := RunGraph(Config{Ranks: ranks, Workers: workers, Policy: sched.LIFOOrder,
		Deadline: 60 * time.Second}, build)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != tasks {
		t.Fatalf("executed %d tasks, want %d", res.Tasks, tasks)
	}
}

// TestBodyFailureOnRemoteRank checks the path from a failing task body
// on a non-zero rank to the caller: the executor captures the panic or
// Ctx.Fail, the rank reports it, the coordinator shuts every rank down,
// and RunGraph returns an error naming the task long before Deadline.
func TestBodyFailureOnRemoteRank(t *testing.T) {
	const tasks, ranks = 8, 2
	const bad = 5 // affinity 5 % 2: rank 1
	for name, fail := range map[string]func(*ptg.Ctx){
		"panic":    func(*ptg.Ctx) { panic("boom") },
		"ctx.Fail": func(ctx *ptg.Ctx) { ctx.Fail(errors.New("boom")) },
	} {
		fail := fail
		t.Run(name, func(t *testing.T) {
			build := func(rank int) (*ptg.Graph, error) {
				g := ptg.NewGraph("body-failure")
				tc := g.Class("T")
				tc.Domain = func(emit func(ptg.Args)) {
					for i := 0; i < tasks; i++ {
						emit(ptg.A1(i))
					}
				}
				tc.Affinity = func(a ptg.Args) int { return a[0] % ranks }
				tc.AddFlow("D", ptg.Write).InNew(nil, func(ptg.Args) int64 { return 8 })
				tc.Body = func(ctx *ptg.Ctx) {
					if ctx.Args[0] == bad {
						fail(ctx)
					}
				}
				return g, nil
			}
			const deadline = 60 * time.Second
			t0 := time.Now()
			_, err := RunGraph(Config{Ranks: ranks, Workers: 2, Deadline: deadline}, build)
			ref := ptg.TaskRef{Class: "T", Args: ptg.A1(bad)}.String()
			if err == nil || !strings.Contains(err.Error(), ref) || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("err = %v, want one naming %s and its cause", err, ref)
			}
			if el := time.Since(t0); el > deadline/4 {
				t.Fatalf("failure took %v to surface (Deadline %v)", el, deadline)
			}
		})
	}
}
