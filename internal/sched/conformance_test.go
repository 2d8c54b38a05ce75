// Conformance suite: proves the real shared-memory runtime, the
// distributed discrete-event simulator, and the socket-based
// distributed runtime take identical scheduling decisions now that all
// three consume internal/sched. Pop-order equivalence is asserted for
// every Policy×QueueMode combination on the same generated DAGs at a
// single worker (where a schedule is a pure function of the decision
// core), steal-victim choice is pinned under a scripted substrate, and
// inter-node steal is checked against its behavior-class invariants
// (non-migratable classes never leave their affinity node; imbalance
// produces re-dispatches).
package sched_test

import (
	"fmt"
	"sync"
	"testing"

	"parsec/internal/cluster"
	"parsec/internal/ga"
	"parsec/internal/netrun"
	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/sched"
	"parsec/internal/sim"
	"parsec/internal/simexec"
)

// confChains builds c dependency chains of length l with chain-varying
// priorities (including deliberate ties so the Seq tie-break is
// exercised), runnable on both executors: bodies for the runtime, costs
// and affinities for the simulator.
func confChains(c, l, nodes int) *ptg.Graph {
	g := ptg.NewGraph("conf-chains")
	step := g.Class("STEP")
	step.Domain = func(emit func(ptg.Args)) {
		for ci := 0; ci < c; ci++ {
			for s := 0; s < l; s++ {
				emit(ptg.A2(ci, s))
			}
		}
	}
	// Every pair of adjacent chains shares a priority level, so the
	// schedule depends on the Seq tie-break the core pins.
	step.Priority = func(a ptg.Args) int64 { return int64((c - a[0]) / 2) }
	step.Affinity = func(a ptg.Args) int { return a[0] % nodes }
	step.Cost = func(a ptg.Args) ptg.Cost { return ptg.Cost{Flops: 1e7} }
	step.AddFlow("D", ptg.RW).
		InNew(func(a ptg.Args) bool { return a[1] == 0 }, func(a ptg.Args) int64 { return 8 }).
		In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "STEP", Args: ptg.A2(a[0], a[1]-1)}, "D"
		}).
		Out(func(a ptg.Args) bool { return a[1] < l-1 }, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "STEP", Args: ptg.A2(a[0], a[1]+1)}, "D"
		})
	return g
}

// confFanout builds one SRC releasing n independent LEAF tasks whose
// priorities cycle through a few levels: after SRC completes the whole
// frontier is ready at once, stressing pure queue-ordering decisions.
func confFanout(n int) *ptg.Graph {
	g := ptg.NewGraph("conf-fanout")
	src := g.Class("SRC")
	src.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)) }
	src.Cost = func(a ptg.Args) ptg.Cost { return ptg.Cost{Flops: 1e7} }
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
	leaf.Priority = func(a ptg.Args) int64 { return int64(a[0] % 3) }
	leaf.Cost = func(a ptg.Args) ptg.Cost { return ptg.Cost{Flops: 1e7} }
	leaf.AddFlow("D", ptg.Read).
		In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "SRC", Args: ptg.A1(0)}, "D"
		})
	return g
}

// takeOrder extracts the dispatch order — the refs of OpPop and OpSteal
// events — from a recorded decision stream.
func takeOrder(events []sched.Event) []string {
	var order []string
	for _, e := range events {
		if e.Op == sched.OpPop || e.Op == sched.OpSteal {
			order = append(order, e.Inst.Ref.String())
		}
	}
	return order
}

// runtimeDecisions executes the graph on the real runtime and returns
// the scheduling decision stream. The recorder locks because the
// observer contract allows concurrent workers, even though these tests
// run one.
func runtimeDecisions(t *testing.T, g *ptg.Graph, pol sched.Policy, mode sched.QueueMode, workers int) []sched.Event {
	t.Helper()
	var mu sync.Mutex
	var events []sched.Event
	_, err := runtime.Run(g, runtime.Config{
		Workers: workers,
		Policy:  pol,
		Queues:  mode,
		SchedObserver: func(e sched.Event) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("runtime %v/%v: %v", pol, mode, err)
	}
	return events
}

// simexecDecisions executes the graph on the simulated cluster and
// returns the scheduling decision stream.
func simexecDecisions(t *testing.T, g *ptg.Graph, pol sched.Policy, mode sched.QueueMode, nodes, cores int, steal bool) ([]sched.Event, simexec.Result) {
	t.Helper()
	cfg := cluster.CascadeLike()
	cfg.Nodes = nodes
	cfg.CoresPerNode = cores
	cfg.JitterFrac = 0
	eng := sim.NewEngine()
	m := cluster.New(eng, cfg)
	var events []sched.Event
	res, err := simexec.Run(g, m, ga.NewSim(m), simexec.Config{
		CoresPerNode:   cores,
		Policy:         pol,
		Queues:         mode,
		InterNodeSteal: steal,
		SchedObserver:  func(e sched.Event) { events = append(events, e) },
	})
	if err != nil {
		t.Fatalf("simexec %v/%v: %v", pol, mode, err)
	}
	return events, res
}

// netrunDecisions executes the graph on the socket runtime at one rank
// and returns the scheduling decision stream. build must construct a
// fresh graph per call — RunGraph builds once for the coordinator's
// task count and once for the rank's tracker.
func netrunDecisions(t *testing.T, build func() *ptg.Graph, pol sched.Policy, mode sched.QueueMode, workers int) []sched.Event {
	t.Helper()
	var mu sync.Mutex
	var events []sched.Event
	_, err := netrun.RunGraph(netrun.Config{
		Ranks:   1,
		Workers: workers,
		Policy:  pol,
		Queues:  mode,
		SchedObserver: func(e sched.Event) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		},
	}, func(rank int) (*ptg.Graph, error) { return build(), nil })
	if err != nil {
		t.Fatalf("netrun %v/%v: %v", pol, mode, err)
	}
	return events
}

// TestPopOrderEquivalence is the core conformance claim: at one worker
// the schedule is a pure function of the decision core, so the real
// runtime, the simulator, and the socket runtime must dispatch the same
// generated DAG in the same order for every Policy×QueueMode
// combination.
func TestPopOrderEquivalence(t *testing.T) {
	graphs := []struct {
		name  string
		build func() *ptg.Graph
		tasks int
	}{
		{"chains", func() *ptg.Graph { return confChains(6, 5, 1) }, 30},
		{"fanout", func() *ptg.Graph { return confFanout(24) }, 25},
	}
	for _, pol := range []sched.Policy{sched.PriorityOrder, sched.LIFOOrder} {
		for _, mode := range []sched.QueueMode{sched.SharedQueue, sched.PerWorker, sched.PerWorkerSteal} {
			for _, gr := range graphs {
				t.Run(fmt.Sprintf("%v/%v/%s", pol, mode, gr.name), func(t *testing.T) {
					real := takeOrder(runtimeDecisions(t, gr.build(), pol, mode, 1))
					simEv, _ := simexecDecisions(t, gr.build(), pol, mode, 1, 1, false)
					sim := takeOrder(simEv)
					net := takeOrder(netrunDecisions(t, gr.build, pol, mode, 1))
					if len(real) != gr.tasks {
						t.Fatalf("runtime dispatched %d tasks, want %d", len(real), gr.tasks)
					}
					if len(sim) != gr.tasks {
						t.Fatalf("simexec dispatched %d tasks, want %d", len(sim), gr.tasks)
					}
					if len(net) != gr.tasks {
						t.Fatalf("netrun dispatched %d tasks, want %d", len(net), gr.tasks)
					}
					for i := range real {
						if real[i] != sim[i] {
							t.Fatalf("dispatch %d diverges: runtime %s, simexec %s\nruntime: %v\nsimexec: %v",
								i, real[i], sim[i], real, sim)
						}
						if real[i] != net[i] {
							t.Fatalf("dispatch %d diverges: runtime %s, netrun %s\nruntime: %v\nnetrun: %v",
								i, real[i], net[i], real, net)
						}
					}
				})
			}
		}
	}
}

// TestSimexecDecisionsMatchShadowModel replays the simulator's decision
// stream at several workers per node against a shadow copy of the
// core's queue state: every pop and steal the executor reports must be
// exactly the task a freestanding sched.Set would hand out at that
// point. This catches an executor that bypasses or reorders around the
// core even when the end-to-end makespan looks right.
func TestSimexecDecisionsMatchShadowModel(t *testing.T) {
	const nodes, cores = 2, 2
	for _, pol := range []sched.Policy{sched.PriorityOrder, sched.LIFOOrder} {
		for _, mode := range []sched.QueueMode{sched.SharedQueue, sched.PerWorker, sched.PerWorkerSteal} {
			t.Run(fmt.Sprintf("%v/%v", pol, mode), func(t *testing.T) {
				events, _ := simexecDecisions(t, confChains(8, 4, nodes), pol, mode, nodes, cores, false)
				shadow := make([]*sched.Set, nodes)
				for n := range shadow {
					shadow[n] = sched.NewSet(cores, pol, mode, nil, nil)
				}
				for i, e := range events {
					node := e.Queue / cores
					if e.Op != sched.OpEnqueue && e.Worker >= 0 {
						node = e.Worker / cores
					}
					s := shadow[node]
					switch e.Op {
					case sched.OpEnqueue:
						if want := s.Home(e.Inst) + node*cores; want != e.Queue {
							t.Fatalf("event %d: enqueue of %v on queue %d, core pins it to %d",
								i, e.Inst.Ref, e.Queue, want)
						}
						s.Push(e.Inst)
					case sched.OpPop:
						got := s.Pop(e.Worker % cores)
						if got != e.Inst {
							t.Fatalf("event %d: worker %d popped %v, shadow core pops %v",
								i, e.Worker, e.Inst.Ref, got)
						}
					case sched.OpSteal:
						got := s.StealBest(e.Worker % cores)
						if got != e.Inst {
							t.Fatalf("event %d: worker %d stole %v, shadow core steals %v",
								i, e.Worker, e.Inst.Ref, got)
						}
					}
				}
				total := 0
				for _, s := range shadow {
					total += s.Total()
				}
				if total != 0 {
					t.Fatalf("%d tasks left in shadow queues after the run", total)
				}
			})
		}
	}
}

// TestStealVictimGolden pins both steal disciplines on one scripted
// queue state: the simulator's deterministic best-head steal and the
// real runtime's randomized probe (replayed through the same RNG stream
// the runtime seeds). The two orders differ by design — a simulator has
// a free global view, a lock-at-a-time runtime does not — but they
// drain the same task set, and whenever only one victim holds work the
// choice is provably identical. Any change to either discipline, the
// probe stream, or the tie-break shows up here as a golden diff.
func TestStealVictimGolden(t *testing.T) {
	mk := func() *sched.Set {
		s := sched.NewSet(4, sched.PriorityOrder, sched.PerWorkerSteal, nil, nil)
		for _, in := range []*ptg.Instance{
			{Ref: ptg.TaskRef{Class: "T", Args: ptg.A1(0)}, Priority: 5, Seq: 0}, // q0
			{Ref: ptg.TaskRef{Class: "T", Args: ptg.A1(4)}, Priority: 1, Seq: 4}, // q0
			{Ref: ptg.TaskRef{Class: "T", Args: ptg.A1(2)}, Priority: 7, Seq: 2}, // q2
			{Ref: ptg.TaskRef{Class: "T", Args: ptg.A1(3)}, Priority: 7, Seq: 3}, // q3
		} {
			s.Push(in)
		}
		return s
	}
	const thief = 1 // worker 1's queue stays empty: it only steals

	// Discipline 1: the simulator's best-head steal. Priority 7 ties
	// between seq 2 and 3 resolve by Seq; queue 0 drains best-first.
	s := mk()
	var bestOrder []int
	for in := s.StealBest(thief); in != nil; in = s.StealBest(thief) {
		bestOrder = append(bestOrder, in.Seq)
	}
	if want := []int{2, 3, 0, 4}; !equalSeqs(bestOrder, want) {
		t.Fatalf("StealBest order = %v, want %v", bestOrder, want)
	}

	// Discipline 2: the runtime's randomized probe over the same state,
	// driven by worker 1's seeded stream (starts 2, 0, 1, 3 — pinned by
	// TestRNGGolden in the core's own suite).
	s = mk()
	rng := sched.NewRNG(thief)
	var probeOrder []int
	for {
		var got *ptg.Instance
		if !sched.EachVictim(&rng, thief, s.Queues(), func(v int) bool {
			if s.Len(v) == 0 {
				return false
			}
			got = s.Pop(v)
			return got != nil
		}) {
			break
		}
		probeOrder = append(probeOrder, got.Seq)
	}
	if want := []int{2, 0, 3, 4}; !equalSeqs(probeOrder, want) {
		t.Fatalf("EachVictim order = %v, want %v", probeOrder, want)
	}

	// Same multiset either way: stealing reorders work, never loses or
	// invents it.
	seen := map[int]bool{}
	for _, q := range bestOrder {
		seen[q] = true
	}
	for _, q := range probeOrder {
		if !seen[q] {
			t.Fatalf("EachVictim stole seq %d that StealBest never served", q)
		}
	}

	// With a single non-empty victim the disciplines must agree exactly:
	// the probe has only one place to land and best-head has only one
	// head to compare.
	lone := sched.NewSet(4, sched.PriorityOrder, sched.PerWorkerSteal, nil, nil)
	lone.Push(&ptg.Instance{Ref: ptg.TaskRef{Class: "T", Args: ptg.A1(3)}, Priority: 2, Seq: 3}) // q3
	fromBest := lone.StealBest(thief)

	lone = sched.NewSet(4, sched.PriorityOrder, sched.PerWorkerSteal, nil, nil)
	lone.Push(&ptg.Instance{Ref: ptg.TaskRef{Class: "T", Args: ptg.A1(3)}, Priority: 2, Seq: 3})
	rng = sched.NewRNG(thief)
	var fromProbe *ptg.Instance
	sched.EachVictim(&rng, thief, lone.Queues(), func(v int) bool {
		if lone.Len(v) == 0 {
			return false
		}
		fromProbe = lone.Pop(v)
		return fromProbe != nil
	})
	if fromBest == nil || fromProbe == nil || fromBest.Seq != fromProbe.Seq {
		t.Fatalf("lone-victim steal diverges: best-head %v, probe %v", fromBest, fromProbe)
	}
}

// TestInterNodeStealInvariants checks the behavior-class contract of
// the re-dispatch path on an imbalanced 2-node run: non-migratable
// tasks execute only on their affinity node, the imbalance produces
// re-dispatches, and at least one migratable task actually moves.
func TestInterNodeStealInvariants(t *testing.T) {
	const nodes, cores = 2, 2
	const pinned, movable = 12, 12
	g := ptg.NewGraph("conf-steal")
	src := g.Class("SRC")
	src.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)) }
	src.Affinity = func(a ptg.Args) int { return 0 }
	src.Cost = func(a ptg.Args) ptg.Cost { return ptg.Cost{Flops: 1e7} }
	f := src.AddFlow("D", ptg.Write)
	f.InNew(nil, func(a ptg.Args) int64 { return 64 })
	for i := 0; i < pinned; i++ {
		i := i
		f.Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "PIN", Args: ptg.A1(i)}, "D"
		})
	}
	for i := 0; i < movable; i++ {
		i := i
		f.Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "MIG", Args: ptg.A1(i)}, "D"
		})
	}
	// Both fan-out classes live on node 0, so node 1's workers have
	// nothing but what they re-dispatch.
	leafDomain := func(n int) func(emit func(ptg.Args)) {
		return func(emit func(ptg.Args)) {
			for i := 0; i < n; i++ {
				emit(ptg.A1(i))
			}
		}
	}
	leafIn := func(c *ptg.TaskClass) {
		c.AddFlow("D", ptg.Read).
			In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
				return ptg.TaskRef{Class: "SRC", Args: ptg.A1(0)}, "D"
			})
	}
	var mu sync.Mutex
	ranOn := map[string]int{}
	record := func(ctx *simexec.TaskCtx) {
		mu.Lock()
		ranOn[ctx.Inst.Ref.String()] = ctx.Node
		mu.Unlock()
		ctx.P.Hold(sim.Millisecond)
	}
	for _, name := range []string{"PIN", "MIG"} {
		c := g.Class(name)
		c.Domain = leafDomain(pinned)
		c.Affinity = func(a ptg.Args) int { return 0 }
		c.Cost = func(a ptg.Args) ptg.Cost { return ptg.Cost{Flops: 1e9} }
		leafIn(c)
	}

	cfg := cluster.CascadeLike()
	cfg.Nodes = nodes
	cfg.CoresPerNode = cores
	cfg.JitterFrac = 0
	eng := sim.NewEngine()
	m := cluster.New(eng, cfg)
	res, err := simexec.Run(g, m, ga.NewSim(m), simexec.Config{
		CoresPerNode:   cores,
		Policy:         sched.PriorityOrder,
		Queues:         sched.PerWorkerSteal,
		InterNodeSteal: true,
		Migratable:     func(class string) bool { return class == "MIG" },
		Behaviors: map[string]simexec.Behavior{
			"PIN": record, "MIG": record,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != 1+pinned+movable {
		t.Fatalf("tasks = %d, want %d", res.Tasks, 1+pinned+movable)
	}
	if res.Redispatches == 0 {
		t.Fatal("imbalanced run produced no re-dispatches")
	}
	moved := 0
	for ref, node := range ranOn {
		switch {
		case len(ref) >= 3 && ref[:3] == "PIN":
			if node != 0 {
				t.Errorf("non-migratable %s executed on node %d", ref, node)
			}
		case len(ref) >= 3 && ref[:3] == "MIG":
			if node != 0 {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("no migratable task executed off its affinity node")
	}
	if moved != res.Redispatches {
		t.Errorf("moved %d tasks but counted %d re-dispatches", moved, res.Redispatches)
	}
}

func equalSeqs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
