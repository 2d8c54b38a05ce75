package simexec

import (
	"strings"
	"testing"

	"parsec/internal/cluster"
	"parsec/internal/fault"
	"parsec/internal/ga"
	"parsec/internal/ptg"
	"parsec/internal/sched"
	"parsec/internal/sim"
)

// faultMachine is testMachine with a fault injector installed.
func faultMachine(nodes, cores int, fc fault.Config) (*cluster.Machine, *ga.Sim, *fault.Injector) {
	cfg := cluster.CascadeLike()
	cfg.Nodes = nodes
	cfg.CoresPerNode = cores
	cfg.JitterFrac = 0
	e := sim.NewEngine()
	m := cluster.New(e, cfg)
	inj := fault.New(fc)
	m.SetFaults(inj)
	return m, ga.NewSim(m), inj
}

// TestRetryTimeoutAndBackoffCharged pins the retry state machine's
// timing: a seeded schedule whose single transfer drops exactly once
// must finish exactly one detection timeout plus one initial backoff
// later than the fault-free run.
func TestRetryTimeoutAndBackoffCharged(t *testing.T) {
	const dropProb = 0.6
	// Find a seed whose transfer stream is (drop, clean success, ...).
	seed := uint64(0)
	for s := uint64(1); s < 10000; s++ {
		probe := fault.New(fault.Config{Seed: s, DropProb: dropProb})
		first, second := probe.Transfer(0, 1), probe.Transfer(0, 1)
		if first.Drop && !second.Drop && !second.AckDrop && second.Extra == 0 {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("no suitable seed found")
	}

	pol := RetryPolicy{
		Timeout:    300 * sim.Microsecond,
		Backoff:    70 * sim.Microsecond,
		BackoffCap: 500 * sim.Microsecond,
		MaxRetries: 5,
	}
	g := pipelineGraph(1, 1e6)

	m0, gs0 := testMachine(2, 1)
	base, err := Run(g, m0, gs0, Config{CoresPerNode: 1, Retry: pol})
	if err != nil {
		t.Fatal(err)
	}
	m1, gs1, inj := faultMachine(2, 1, fault.Config{Seed: seed, DropProb: dropProb})
	res, err := Run(pipelineGraph(1, 1e6), m1, gs1, Config{CoresPerNode: 1, Retry: pol})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops != 1 || res.Retries != 1 || res.DupSuppressed != 0 {
		t.Fatalf("drops=%d retries=%d dups=%d, want 1/1/0", res.Drops, res.Retries, res.DupSuppressed)
	}
	if res.BackoffTime != pol.Backoff {
		t.Errorf("BackoffTime = %v, want %v", res.BackoffTime, pol.Backoff)
	}
	want := base.Makespan + pol.Timeout + pol.Backoff
	if res.Makespan != want {
		t.Errorf("makespan = %v, want fault-free %v + timeout + backoff = %v", res.Makespan, base.Makespan, want)
	}
	if st := inj.Stats(); st.Drops != 1 {
		t.Errorf("injector ledger drops = %d", st.Drops)
	}
	// The retransmission is extra wire volume, not extra logical traffic.
	if res.Transfers != 1 || res.RetransmitBytes != 1e6 {
		t.Errorf("transfers=%d retransmit=%d, want 1/1e6", res.Transfers, res.RetransmitBytes)
	}
}

// TestRetryExhaustionFailsRun: a permanently lossy link must surface a
// clear error after MaxRetries retransmissions, not hang.
func TestRetryExhaustionFailsRun(t *testing.T) {
	m, gs, _ := faultMachine(2, 1, fault.Config{Seed: 1, DropProb: 1})
	pol := DefaultRetryPolicy()
	pol.MaxRetries = 3
	_, err := Run(pipelineGraph(1, 1e6), m, gs, Config{CoresPerNode: 1, Retry: pol})
	if err == nil {
		t.Fatal("expected retries-exhausted error")
	}
	if !strings.Contains(err.Error(), "retries exhausted") {
		t.Errorf("error = %v, want mention of retry exhaustion", err)
	}
}

// TestAckDropDuplicatesSuppressed: lost acks make the sender retransmit
// payloads the receiver already consumed. Every such duplicate must be
// suppressed — one slipping through would fail the run with the
// tracker's duplicate-delivery error.
func TestAckDropDuplicatesSuppressed(t *testing.T) {
	m, gs, inj := faultMachine(2, 2, fault.Config{Seed: 11, AckDropProb: 0.4})
	res, err := Run(pipelineGraph(40, 1e5), m, gs, Config{CoresPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.AckDrops == 0 {
		t.Fatal("schedule injected no ack drops; pick another seed")
	}
	if res.DupSuppressed != res.AckDrops {
		t.Errorf("DupSuppressed = %d, AckDrops = %d; every ack loss must yield exactly one suppressed duplicate",
			res.DupSuppressed, res.AckDrops)
	}
	if res.Retries != res.AckDrops {
		t.Errorf("Retries = %d, want %d (one retransmission per lost ack)", res.Retries, res.AckDrops)
	}
	// Logical traffic is unchanged: 40 transfers, duplicates excluded.
	if res.Transfers != 40 || res.BytesSent != 40e5 {
		t.Errorf("transfers=%d bytes=%d, want 40/40e5", res.Transfers, res.BytesSent)
	}
	if st := inj.Stats(); int(st.AckDrops) != res.AckDrops {
		t.Errorf("ledger ack drops = %d, result %d", st.AckDrops, res.AckDrops)
	}
}

// TestSpikeLatencyCharged: a spike on every transfer delays the serial
// pipeline by exactly n spikes.
func TestSpikeLatencyCharged(t *testing.T) {
	const n, spike = 5, 400 * sim.Microsecond
	m0, gs0 := testMachine(2, 1)
	base, err := Run(pipelineGraph(n, 1e5), m0, gs0, Config{CoresPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	m1, gs1, _ := faultMachine(2, 1, fault.Config{Seed: 5, SpikeProb: 1, SpikeLatency: spike})
	res, err := Run(pipelineGraph(n, 1e5), m1, gs1, Config{CoresPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < base.Makespan+n*spike {
		t.Errorf("makespan %v < fault-free %v + %d spikes", res.Makespan, base.Makespan, n)
	}
}

// stragglerGraph builds per-node two-stage work: SRC(i) feeds DST(i) a
// payload on the same node, so a re-dispatched DST must move its input
// across the wire.
func stragglerGraph(n int, nodes int, bytes int64) *ptg.Graph {
	g := ptg.NewGraph("straggle")
	src := g.Class("SRC")
	src.Domain = func(emit func(ptg.Args)) {
		for i := 0; i < n; i++ {
			emit(ptg.A1(i))
		}
	}
	src.Affinity = func(a ptg.Args) int { return a[0] % nodes }
	src.Cost = func(a ptg.Args) ptg.Cost { return ptg.Cost{Flops: 2e8} }
	src.FlowBytes = func(a ptg.Args, flow string) int64 { return bytes }
	src.AddFlow("D", ptg.Write).
		InNew(nil, func(a ptg.Args) int64 { return bytes }).
		Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "DST", Args: a}, "D"
		})
	dst := g.Class("DST")
	dst.Domain = src.Domain
	dst.Affinity = src.Affinity
	dst.Cost = func(a ptg.Args) ptg.Cost { return ptg.Cost{Flops: 2e9} }
	dst.AddFlow("D", ptg.Read).
		In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "SRC", Args: a}, "D"
		})
	return g
}

// TestInterNodeStealUnderStraggler is the tentpole's recovery claim in
// miniature: with one node slowed 8x, the inter-node re-dispatch path
// must migrate queued tasks off it and recover well over half of the
// span the pinned configuration loses.
func TestInterNodeStealUnderStraggler(t *testing.T) {
	const nodes, cores, n = 4, 2, 96
	run := func(fc *fault.Config, interNode bool) (Result, *fault.Injector) {
		var inj *fault.Injector
		cfg := cluster.CascadeLike()
		cfg.Nodes = nodes
		cfg.CoresPerNode = cores
		cfg.JitterFrac = 0
		e := sim.NewEngine()
		m := cluster.New(e, cfg)
		if fc != nil {
			inj = fault.New(*fc)
			m.SetFaults(inj)
		}
		res, err := Run(stragglerGraph(n, nodes, 2e5), m, ga.NewSim(m), Config{
			CoresPerNode:   cores,
			Queues:         sched.PerWorkerSteal,
			InterNodeSteal: interNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, inj
	}
	slow := fault.Config{Seed: 9, Stragglers: []fault.Straggler{{Node: 0, Factor: 8}}}

	clean, _ := run(nil, false)
	pinned, _ := run(&slow, false)
	stolen, inj := run(&slow, true)

	if stolen.Redispatches == 0 {
		t.Fatal("no tasks were re-dispatched off the straggler")
	}
	if stolen.RedispatchBytes == 0 {
		t.Fatal("re-dispatched tasks moved no input bytes; their GETs should move with them")
	}
	lossPinned := pinned.Makespan - clean.Makespan
	lossStolen := stolen.Makespan - clean.Makespan
	if lossPinned <= 0 {
		t.Fatalf("straggler did not hurt the pinned run (loss %v)", lossPinned)
	}
	if lossStolen*2 >= lossPinned {
		t.Errorf("re-dispatch recovered too little: loss %v vs pinned loss %v (want < half)", lossStolen, lossPinned)
	}
	if st := inj.Stats(); st.TotalStragglerExcess() == 0 {
		t.Error("injector ledger recorded no straggler excess")
	}
}

// TestInterNodeStealRequiresPerWorkerSteal: configuration guard.
func TestInterNodeStealRequiresPerWorkerSteal(t *testing.T) {
	m, gs := testMachine(2, 1)
	_, err := Run(pipelineGraph(1, 1e5), m, gs, Config{CoresPerNode: 1, InterNodeSteal: true})
	if err == nil {
		t.Fatal("expected config error for InterNodeSteal without sched.PerWorkerSteal")
	}
}

// TestBehaviorTasksNeverMigrate: classes with a Behavior model
// node-resident state and must stay pinned even under a straggler.
func TestBehaviorTasksNeverMigrate(t *testing.T) {
	const nodes, cores, n = 2, 1, 24
	cfg := cluster.CascadeLike()
	cfg.Nodes = nodes
	cfg.CoresPerNode = cores
	cfg.JitterFrac = 0
	e := sim.NewEngine()
	m := cluster.New(e, cfg)
	m.SetFaults(fault.New(fault.Config{Stragglers: []fault.Straggler{{Node: 0, Factor: 16}}}))
	gs := ga.NewSim(m)
	behaved := make(map[int]bool)
	res, err := Run(fanGraph(n, 1e9, nodes), m, gs, Config{
		CoresPerNode:   cores,
		Queues:         sched.PerWorkerSteal,
		InterNodeSteal: true,
		Behaviors: map[string]Behavior{
			"T": func(ctx *TaskCtx) {
				behaved[ctx.Node] = true
				if ctx.Node != ctx.Inst.Node {
					t.Errorf("%v executed on node %d, affinity %d", ctx.Inst.Ref, ctx.Node, ctx.Inst.Node)
				}
				ctx.Compute(1e9, 0, false)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Redispatches != 0 {
		t.Errorf("behavior-backed tasks migrated %d times", res.Redispatches)
	}
	if !behaved[0] || !behaved[1] {
		t.Error("behavior did not run on both nodes")
	}
}
