package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsec/internal/ptg"
	"parsec/internal/sched"
)

// diamondGraph: SRC(0) fans out to MID(i) for i in 0..n-1, which all feed
// SINK(0). Bodies accumulate into a shared slice to verify execution.
func diamondGraph(n int, log *[]string, mu *sync.Mutex) *ptg.Graph {
	g := ptg.NewGraph("diamond")
	record := func(s string) {
		mu.Lock()
		*log = append(*log, s)
		mu.Unlock()
	}

	src := g.Class("SRC")
	src.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)) }
	srcFlow := src.AddFlow("D", ptg.Write)
	srcFlow.InNew(nil, func(a ptg.Args) int64 { return 8 })
	for i := 0; i < n; i++ {
		i := i
		srcFlow.Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "MID", Args: ptg.A1(i)}, "D"
		})
	}
	src.Body = func(ctx *ptg.Ctx) {
		record("SRC")
		ctx.Out[0] = 100
	}

	mid := g.Class("MID")
	mid.Domain = func(emit func(ptg.Args)) {
		for i := 0; i < n; i++ {
			emit(ptg.A1(i))
		}
	}
	mid.Priority = func(a ptg.Args) int64 { return int64(n - a[0]) }
	mid.AddFlow("D", ptg.RW).
		In(nil, func(a ptg.Args) (ptg.TaskRef, string) { return ptg.TaskRef{Class: "SRC", Args: ptg.A1(0)}, "D" }).
		Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "SINK", Args: ptg.A1(0)}, fmt.Sprintf("I%d", a[0])
		})
	mid.Body = func(ctx *ptg.Ctx) {
		record(fmt.Sprintf("MID%d", ctx.Args[0]))
		ctx.Out[0] = ctx.In[0].(int) + ctx.Args[0]
	}

	sink := g.Class("SINK")
	sink.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)) }
	for i := 0; i < n; i++ {
		i := i
		sink.AddFlow(fmt.Sprintf("I%d", i), ptg.Read).
			In(nil, func(a ptg.Args) (ptg.TaskRef, string) { return ptg.TaskRef{Class: "MID", Args: ptg.A1(i)}, "D" })
	}
	sink.Body = func(ctx *ptg.Ctx) {
		sum := 0
		for _, v := range ctx.In {
			sum += v.(int)
		}
		record(fmt.Sprintf("SINK=%d", sum))
	}
	return g
}

func TestRunDiamond(t *testing.T) {
	var log []string
	var mu sync.Mutex
	g := diamondGraph(4, &log, &mu)
	rep, err := Run(g, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != 6 {
		t.Errorf("tasks = %d, want 6", rep.Tasks)
	}
	if rep.ByClass["MID"] != 4 {
		t.Errorf("ByClass = %v", rep.ByClass)
	}
	// SRC first, SINK last, and the sum must be 4*100 + 0+1+2+3 = 406.
	if log[0] != "SRC" || log[len(log)-1] != "SINK=406" {
		t.Errorf("log = %v", log)
	}
}

func TestRunSingleWorkerPriorityOrder(t *testing.T) {
	var log []string
	var mu sync.Mutex
	g := diamondGraph(5, &log, &mu)
	if _, err := Run(g, Config{Workers: 1, Policy: sched.PriorityOrder}); err != nil {
		t.Fatal(err)
	}
	// With one worker and priority = n - i, the MIDs must run 0,1,2,3,4.
	want := []string{"SRC", "MID0", "MID1", "MID2", "MID3", "MID4", "SINK=510"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("log = %v, want %v", log, want)
	}
}

func TestRunSingleWorkerLIFOIgnoresPriority(t *testing.T) {
	var log []string
	var mu sync.Mutex
	g := diamondGraph(5, &log, &mu)
	if _, err := Run(g, Config{Workers: 1, Policy: sched.LIFOOrder}); err != nil {
		t.Fatal(err)
	}
	// LIFO: after SRC completes, MIDs enqueue 0..4 and pop 4..0.
	want := []string{"SRC", "MID4", "MID3", "MID2", "MID1", "MID0", "SINK=510"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("log = %v, want %v", log, want)
	}
}

func TestRunChainSerializes(t *testing.T) {
	// A linear chain must execute in order even with many workers.
	const n = 50
	g := ptg.NewGraph("chain")
	var order []int
	var mu sync.Mutex
	c := g.Class("STEP")
	c.Domain = func(emit func(ptg.Args)) {
		for i := 0; i < n; i++ {
			emit(ptg.A1(i))
		}
	}
	c.AddFlow("D", ptg.RW).
		InNew(func(a ptg.Args) bool { return a[0] == 0 }, func(a ptg.Args) int64 { return 8 }).
		In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "STEP", Args: ptg.A1(a[0] - 1)}, "D"
		}).
		Out(func(a ptg.Args) bool { return a[0] < n-1 }, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "STEP", Args: ptg.A1(a[0] + 1)}, "D"
		})
	c.Body = func(ctx *ptg.Ctx) {
		mu.Lock()
		order = append(order, ctx.Args[0])
		mu.Unlock()
	}
	if _, err := Run(g, Config{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("chain executed out of order: %v", order)
		}
	}
}

func TestRunParallelismAchieved(t *testing.T) {
	// n independent tasks with a rendezvous body: with w workers, at
	// least 2 must overlap (weak but race-free check via max concurrency).
	const n = 16
	g := ptg.NewGraph("par")
	var cur, max atomic.Int32
	c := g.Class("T")
	c.Domain = func(emit func(ptg.Args)) {
		for i := 0; i < n; i++ {
			emit(ptg.A1(i))
		}
	}
	c.Body = func(ctx *ptg.Ctx) {
		v := cur.Add(1)
		for {
			m := max.Load()
			if v <= m || max.CompareAndSwap(m, v) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
	}
	if _, err := Run(g, Config{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if max.Load() < 2 {
		t.Errorf("max concurrency %d, want >= 2", max.Load())
	}
}

func TestRunBodyPanicAborts(t *testing.T) {
	g := ptg.NewGraph("boom")
	c := g.Class("T")
	c.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)) }
	c.Body = func(ctx *ptg.Ctx) { panic("kaboom") }
	if _, err := Run(g, Config{Workers: 2}); err == nil {
		t.Error("panic not surfaced as error")
	}
}

func TestRunDeadlockDetected(t *testing.T) {
	// Two tasks waiting on each other's outputs never become ready.
	g := ptg.NewGraph("dl")
	c := g.Class("T")
	c.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)); emit(ptg.A1(1)) }
	c.AddFlow("D", ptg.RW).
		In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "T", Args: ptg.A1(1 - a[0])}, "D"
		}).
		Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "T", Args: ptg.A1(1 - a[0])}, "D"
		})
	if _, err := Run(g, Config{Workers: 2}); err == nil {
		t.Error("deadlock not detected")
	}
}

func TestReportString(t *testing.T) {
	var log []string
	var mu sync.Mutex
	rep, err := Run(diamondGraph(2, &log, &mu), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() == "" || rep.Workers != 1 {
		t.Error("report formatting")
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	var log []string
	var mu sync.Mutex
	rep, err := Run(diamondGraph(2, &log, &mu), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers <= 0 {
		t.Errorf("default workers = %d", rep.Workers)
	}
}

func TestQueueModesComplete(t *testing.T) {
	for _, mode := range []sched.QueueMode{sched.SharedQueue, sched.PerWorker, sched.PerWorkerSteal} {
		var log []string
		var mu sync.Mutex
		g := diamondGraph(6, &log, &mu)
		rep, err := Run(g, Config{Workers: 3, Queues: mode})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if rep.Tasks != 8 {
			t.Errorf("mode %d: tasks = %d", mode, rep.Tasks)
		}
		if log[len(log)-1] != "SINK=615" {
			t.Errorf("mode %d: wrong result %v", mode, log[len(log)-1])
		}
	}
}

func TestQueueModesChainCorrect(t *testing.T) {
	// A serial chain must stay ordered under pinned queues too (the chain
	// tasks hash to different workers, so each handoff crosses queues).
	const n = 40
	for _, mode := range []sched.QueueMode{sched.PerWorker, sched.PerWorkerSteal} {
		g := ptg.NewGraph("chain")
		var order []int
		var mu sync.Mutex
		c := g.Class("STEP")
		c.Domain = func(emit func(ptg.Args)) {
			for i := 0; i < n; i++ {
				emit(ptg.A1(i))
			}
		}
		c.AddFlow("D", ptg.RW).
			InNew(func(a ptg.Args) bool { return a[0] == 0 }, func(a ptg.Args) int64 { return 8 }).
			In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
				return ptg.TaskRef{Class: "STEP", Args: ptg.A1(a[0] - 1)}, "D"
			}).
			Out(func(a ptg.Args) bool { return a[0] < n-1 }, func(a ptg.Args) (ptg.TaskRef, string) {
				return ptg.TaskRef{Class: "STEP", Args: ptg.A1(a[0] + 1)}, "D"
			})
		c.Body = func(ctx *ptg.Ctx) {
			mu.Lock()
			order = append(order, ctx.Args[0])
			mu.Unlock()
		}
		if _, err := Run(g, Config{Workers: 4, Queues: mode}); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("mode %d: out of order: %v", mode, order)
			}
		}
	}
}

func TestStealingUsesIdleWorkers(t *testing.T) {
	// All tasks hash to worker 0 (Seq stride = workers); with stealing,
	// other workers pick them up and the run must still complete quickly.
	g := ptg.NewGraph("skewed")
	var count atomic.Int32
	c := g.Class("T")
	c.Domain = func(emit func(ptg.Args)) {
		for i := 0; i < 12; i++ {
			emit(ptg.A1(i))
		}
	}
	c.Body = func(ctx *ptg.Ctx) {
		count.Add(1)
		time.Sleep(time.Millisecond)
	}
	rep, err := Run(g, Config{Workers: 4, Queues: sched.PerWorkerSteal})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 12 || rep.Tasks != 12 {
		t.Errorf("count = %d", count.Load())
	}
}
