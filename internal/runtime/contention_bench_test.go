package runtime

import (
	"fmt"
	"testing"

	"parsec/internal/ptg"
	"parsec/internal/sched"
)

func benchFanout(n int) *ptg.Graph {
	g := ptg.NewGraph("bench-fanout")
	src := g.Class("SRC")
	src.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)) }
	f := src.AddFlow("D", ptg.Write)
	f.InNew(nil, func(a ptg.Args) int64 { return 8 })
	for i := 0; i < n; i++ {
		i := i
		f.Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "LEAF", Args: ptg.A1(i)}, "D"
		})
	}
	src.Body = func(ctx *ptg.Ctx) { ctx.Out[0] = 1 }
	leaf := g.Class("LEAF")
	leaf.Domain = func(emit func(ptg.Args)) {
		for i := 0; i < n; i++ {
			emit(ptg.A1(i))
		}
	}
	leaf.AddFlow("D", ptg.Read).
		In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "SRC", Args: ptg.A1(0)}, "D"
		})
	leaf.Body = func(ctx *ptg.Ctx) {}
	return g
}

func BenchmarkDispatchFanout(b *testing.B) {
	const tasks = 2048
	g := benchFanout(tasks)
	for _, mode := range []struct {
		name string
		q    sched.QueueMode
	}{{"shared", sched.SharedQueue}, {"pinned", sched.PerWorker}, {"pinned-steal", sched.PerWorkerSteal}} {
		for _, workers := range []int{1, 4, 8, 16} {
			mode, workers := mode, workers
			b.Run(fmt.Sprintf("%s/workers-%d", mode.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rep, err := Run(g, Config{Workers: workers, Queues: mode.q})
					if err != nil {
						b.Fatal(err)
					}
					if rep.Tasks != tasks+1 {
						b.Fatal("bad task count")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tasks+1), "ns/task")
			})
		}
	}
}

// TestDispatchAllocationsPerTask pins what dispatch allocates per task on
// an empty-body fan-out: the Ctx, the Out buffer and the lending handle
// are per worker, the tracker's state is two slabs, so a whole run —
// tracker, queues, workers and heap growth included — stays under one
// allocation per task.
func TestDispatchAllocationsPerTask(t *testing.T) {
	const tasks = 2048
	g := benchFanout(tasks)
	sk, err := ptg.NewSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	g.Bind(sk)
	for _, q := range []sched.QueueMode{sched.SharedQueue, sched.PerWorkerSteal} {
		perRun := testing.AllocsPerRun(5, func() {
			if _, err := Run(g, Config{Workers: 2, Queues: q}); err != nil {
				t.Fatal(err)
			}
		})
		if perTask := perRun / (tasks + 1); perTask > 1 {
			t.Errorf("%v: %.2f allocations per task (%v per run), want <= 1", q, perTask, perRun)
		} else {
			t.Logf("%v: %.3f allocations per task (%v per run)", q, perTask, perRun)
		}
	}
}
