// Benchmarks regenerating every evaluation artifact of the paper (see
// EXPERIMENTS.md for the experiment index):
//
//   - BenchmarkFig9*: the headline comparison — original CGP code vs the
//     five PaRSEC variants across a cores/node sweep. Uses the reduced
//     benzene/8-node configuration so one bench iteration is fast;
//     `go run ./cmd/ccsim fig9` produces the full beta-carotene/32-node table.
//     The "sim-s" metric is the simulated execution time (Fig 9's y-axis).
//   - BenchmarkFig10/11/12*: the trace experiments; reported metrics are
//     what the paper reads off the traces (startup ramp, worker time
//     blocked in communication).
//   - BenchmarkEnergy*: the §IV-A semantic-equivalence experiment with
//     real arithmetic.
//   - BenchmarkAblation*: sweeps of the design choices DESIGN.md calls
//     out (segment height, NXTVAL round-trip, network bandwidth).
//   - BenchmarkKernel*/BenchmarkInspector/BenchmarkTracker*/
//     BenchmarkHeapPopDeep/BenchmarkQueuePreloadedDrain: the substrate
//     microbenchmarks.
package parsec

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/cluster"
	"parsec/internal/molecule"
	"parsec/internal/obsv"
	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/sched"
	"parsec/internal/sim"
	"parsec/internal/tce"
	"parsec/internal/tensor"
	"parsec/internal/trace"
	"parsec/internal/xform"
)

// benchCluster is the reduced Fig 9 machine used by benchmarks.
func benchCluster() cluster.Config {
	cfg := cluster.CascadeLike()
	cfg.Nodes = 8
	return cfg
}

var benchCores = []int{1, 3, 7, 11, 15}

// BenchmarkFig9Original regenerates the original-code series of Fig 9.
func BenchmarkFig9Original(b *testing.B) {
	sys := molecule.Benzene631G()
	for _, cores := range benchCores {
		b.Run(fmt.Sprintf("cores-%d", cores), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := ccsd.RunSimSeries(sys, ccsd.BaselineName, benchCluster(), ccsd.SimRunConfig{CoresPerNode: cores})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Makespan.Seconds()
			}
			b.ReportMetric(last, "sim-s")
		})
	}
}

// BenchmarkFig9Variants regenerates the PaRSEC series of Fig 9.
func BenchmarkFig9Variants(b *testing.B) {
	sys := molecule.Benzene631G()
	for _, spec := range ccsd.Variants() {
		spec := spec
		for _, cores := range benchCores {
			cores := cores
			b.Run(fmt.Sprintf("%s/cores-%d", spec.Name, cores), func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					res, err := ccsd.RunSim(sys, spec, benchCluster(), ccsd.SimRunConfig{CoresPerNode: cores})
					if err != nil {
						b.Fatal(err)
					}
					last = res.Makespan.Seconds()
				}
				b.ReportMetric(last, "sim-s")
			})
		}
	}
}

// traceBench runs one traced simulation and reports the paper's trace
// metrics.
func traceBench(b *testing.B, run func(tr *trace.Trace) (float64, error)) {
	b.Helper()
	var ramp, commShare, makespan float64
	for i := 0; i < b.N; i++ {
		tr := trace.New()
		mk, err := run(tr)
		if err != nil {
			b.Fatal(err)
		}
		makespan = mk
		byNode, sk := tr.Spans()
		p := obsv.FromSpans("", byNode, sk)
		p.SetRamp("GEMM", byNode, sk)
		ramp = float64(p.Ramp.Mean) / 1e9
		var busy, commBusy int64
		for _, c := range p.Classes {
			busy += c.Total
			switch c.Class {
			case "READA", "READB", "WRITE":
				commBusy += c.Total
			}
		}
		if busy > 0 {
			commShare = 100 * float64(commBusy) / float64(busy)
		}
	}
	b.ReportMetric(makespan, "sim-s")
	b.ReportMetric(ramp, "gemm-ramp-s")
	b.ReportMetric(commShare, "comm-busy-%")
}

// BenchmarkFig10TraceV4: trace of v4 (priorities) — short GEMM ramp.
func BenchmarkFig10TraceV4(b *testing.B) {
	sys := molecule.Benzene631G()
	spec, _ := ccsd.VariantByName("v4")
	traceBench(b, func(tr *trace.Trace) (float64, error) {
		res, err := ccsd.RunSim(sys, spec, benchCluster(), ccsd.SimRunConfig{CoresPerNode: 7, Trace: tr})
		return res.Makespan.Seconds(), err
	})
}

// BenchmarkFig11TraceV2: trace of v2 (no priorities) — startup bubble.
func BenchmarkFig11TraceV2(b *testing.B) {
	sys := molecule.Benzene631G()
	spec, _ := ccsd.VariantByName("v2")
	traceBench(b, func(tr *trace.Trace) (float64, error) {
		res, err := ccsd.RunSim(sys, spec, benchCluster(), ccsd.SimRunConfig{CoresPerNode: 7, Trace: tr})
		return res.Makespan.Seconds(), err
	})
}

// BenchmarkFig12TraceOriginal: trace of the original code — worker time
// dominated by GET_HASH_BLOCK (no overlap).
func BenchmarkFig12TraceOriginal(b *testing.B) {
	sys := molecule.Benzene631G()
	traceBench(b, func(tr *trace.Trace) (float64, error) {
		res, err := ccsd.RunSimSeries(sys, ccsd.BaselineName, benchCluster(), ccsd.SimRunConfig{CoresPerNode: 7, Trace: tr})
		return res.Makespan.Seconds(), err
	})
}

// BenchmarkEnergyVariants is the §IV-A equivalence run with real
// arithmetic on the water system.
func BenchmarkEnergyVariants(b *testing.B) {
	w := tce.Inspect(tce.T2_7(molecule.Water631G()), nil)
	ref := ccsd.ReferenceEnergy(w)
	for _, spec := range ccsd.Variants() {
		spec := spec
		plan := ccsd.CompileWorkload(w, spec, ccsd.Options{Nodes: 1})
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := plan.Execute(ccsd.ExecConfig{Workers: 4})
				if err != nil {
					b.Fatal(err)
				}
				if d := ccsd.EnergyRelDiff(res.Energy, ref); d > ccsd.EnergyTol {
					b.Fatalf("energy drift: relative %g", d)
				}
			}
		})
	}
}

// BenchmarkExecuteKernelShape is one whole real-arithmetic job on a
// benzene-shaped system (v5, 2 workers): inputs filling on ga_access and
// retiring on ga_release, kernels, and each output block folded into the
// energy by the WRITE that completes it. B/op is the number to watch:
// what a job allocates — the sorted output tiles, each adopted as its
// block and dropped once folded, and input tiles for about 160 of the
// 256 distinct input blocks, because a retired block's tile serves the
// next first touch.
func BenchmarkExecuteKernelShape(b *testing.B) {
	sys := molecule.Custom("benzene-shaped", 21, 45, 12, 2, 0x5eed)
	spec, _ := ccsd.VariantByName("v5")
	plan := ccsd.Compile(sys, spec, ccsd.Options{Nodes: 1})
	ref := ccsd.ReferenceEnergy(plan.Workload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := plan.Execute(ccsd.ExecConfig{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		if d := ccsd.EnergyRelDiff(res.Energy, ref); d > ccsd.EnergyTol {
			b.Fatalf("energy off the reference by %g", d)
		}
	}
}

// BenchmarkExecuteTraced is what observing a job costs, on the shape the
// service runs most (water, v5, 2 workers, 1,216 tasks of about a
// microsecond): the same Execute unobserved; recorded and profiled the
// way serve.runJob does it, from 24-byte spans and no trace; and with
// the spans labelled as a trace when the run ends, which the exporters
// ask for. allocs/op of the
// middle one over the first must stay a per-worker number, not a
// per-task one (TestRecordingAllocatesPerWorkerNotPerTask).
func BenchmarkExecuteTraced(b *testing.B) {
	spec, _ := ccsd.VariantByName("v5")
	plan := ccsd.Compile(molecule.Water631G(), spec, ccsd.Options{Nodes: 1})
	cfg := ccsd.ExecConfig{Workers: 2}
	sk, err := plan.NewGraph(nil).Skeleton()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		run  func() error
	}{
		{"untraced", func() error { _, err := plan.Execute(cfg); return err }},
		{"profiled", func() error { _, _, err := plan.ExecuteProfiled("bench", cfg); return err }},
		{"labelled", func() error {
			res, _, err := plan.ExecuteProfiled("bench", cfg)
			tr := trace.New()
			tr.AddSpans(0, res.Report.Spans, sk)
			tr.Events()
			return err
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := mode.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnergy is the energy reduction alone on the same shape: the
// weights are generated a block at a time into one scratch tile, so a
// call allocates a few objects, not a weight tensor.
func BenchmarkEnergy(b *testing.B) {
	sys := molecule.Custom("benzene-shaped", 21, 45, 12, 2, 0x5eed)
	w := tce.Inspect(tce.T2_7(sys), nil)
	c := w.RunReference(w.Materialize())
	want := c.Dot(w.Weights())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := w.Energy(c); got != want {
			b.Fatalf("Energy = %v, c.Dot(Weights()) = %v", got, want)
		}
	}
}

// BenchmarkAblationSegmentHeight sweeps the GEMM segment height of §IV-A
// between the paper's two extremes (1 = max parallelism, full chain = max
// locality, v1) through intermediate points.
func BenchmarkAblationSegmentHeight(b *testing.B) {
	sys := molecule.Benzene631G()
	v3, _ := ccsd.VariantByName("v3")
	for _, pt := range []struct {
		name string
		pass xform.Pass
	}{
		{"h-1", xform.SplitChain{Height: 1}},
		{"h-2", xform.SplitChain{Height: 2}},
		{"h-4", xform.SplitChain{Height: 4}},
		{"h-8", xform.SplitChain{Height: 8}},
		{"h-full", xform.FuseChain{}},
	} {
		spec, err := v3.Append(pt.pass)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(pt.name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := ccsd.RunSim(sys, spec, benchCluster(),
					ccsd.SimRunConfig{CoresPerNode: 7})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Makespan.Seconds()
			}
			b.ReportMetric(last, "sim-s")
		})
	}
}

// BenchmarkAblationNxtvalRTT sweeps the shared-counter round trip of the
// original code's global work stealing (§IV-D).
func BenchmarkAblationNxtvalRTT(b *testing.B) {
	sys := molecule.Benzene631G()
	for _, rtt := range []sim.Time{0, 6 * sim.Microsecond, 60 * sim.Microsecond, 600 * sim.Microsecond} {
		rtt := rtt
		b.Run(fmt.Sprintf("rtt-%v", rtt), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := benchCluster()
				cfg.AtomicRTT = rtt
				res, err := ccsd.RunSimSeries(sys, ccsd.BaselineName, cfg, ccsd.SimRunConfig{CoresPerNode: 7})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Makespan.Seconds()
			}
			b.ReportMetric(last, "sim-s")
		})
	}
}

// BenchmarkAblationNetworkBW sweeps the NIC bandwidth to probe the
// sensitivity of the variant ordering to the communication balance.
func BenchmarkAblationNetworkBW(b *testing.B) {
	sys := molecule.Benzene631G()
	spec, _ := ccsd.VariantByName("v5")
	for _, bw := range []float64{0.3e9, 1.2e9, 5e9} {
		bw := bw
		b.Run(fmt.Sprintf("nic-%.1fGBs", bw/1e9), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := benchCluster()
				cfg.NICBWBytes = bw
				res, err := ccsd.RunSim(sys, spec, cfg, ccsd.SimRunConfig{CoresPerNode: 7})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Makespan.Seconds()
			}
			b.ReportMetric(last, "sim-s")
		})
	}
}

// BenchmarkKernelGemm measures the real blocked DGEMM on a
// production-size tile (the unit of compute in every experiment).
func BenchmarkKernelGemm(b *testing.B) {
	const m, n, k = 128, 128, 128
	a := tensor.NewMatrix(k, m)
	bb := tensor.NewMatrix(k, n)
	c := tensor.NewMatrix(m, n)
	ta := tensor.NewTile4(k, m, 1, 1)
	ta.FillRandom(1, 1)
	copy(a.Data, ta.Data)
	tb := tensor.NewTile4(k, n, 1, 1)
	tb.FillRandom(2, 1)
	copy(bb.Data, tb.Data)
	b.SetBytes(int64(8 * (m*k + k*n + m*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Gemm(true, false, 1, a, bb, 1, c)
	}
	flops := float64(tensor.GemmFlops(m, n, k)) * float64(b.N)
	b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

// BenchmarkKernelSort4 measures the SORT_4 permutation kernel.
func BenchmarkKernelSort4(b *testing.B) {
	src := tensor.NewTile4(16, 16, 16, 16)
	src.FillRandom(3, 1)
	dst := tensor.NewTile4(16, 16, 16, 16)
	b.SetBytes(src.Bytes() * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Sort4(dst, src, [4]int{2, 0, 3, 1}, -1)
	}
}

// BenchmarkInspector measures the inspection phase on the full
// beta-carotene workload.
func BenchmarkInspector(b *testing.B) {
	sys := molecule.BetaCarotene631G()
	var chains int
	for i := 0; i < b.N; i++ {
		w := tce.Inspect(tce.T2_7(sys), nil)
		chains = w.NumChains()
	}
	b.ReportMetric(float64(chains), "chains")
}

// BenchmarkTracker measures the dataflow engine: instantiating and
// driving a variant graph to completion without executing bodies.
func BenchmarkTracker(b *testing.B) {
	w := tce.Inspect(tce.T2_7(molecule.Water631G()), nil)
	spec, _ := ccsd.VariantByName("v5")
	g := ccsd.BuildGraph(w, spec, ccsd.Options{Nodes: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := ptg.NewTracker(g)
		if err != nil {
			b.Fatal(err)
		}
		queue := append([]*ptg.Instance(nil), tr.InitialReady()...)
		var dels []ptg.Delivery
		for len(queue) > 0 {
			in := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if err := tr.Start(in); err != nil {
				b.Fatal(err)
			}
			if dels, err = tr.Complete(in, dels[:0]); err != nil {
				b.Fatal(err)
			}
			for _, d := range dels {
				ready, err := tr.Deliver(d.To, d.ToFlow, nil)
				if err != nil {
					b.Fatal(err)
				}
				if ready {
					queue = append(queue, d.To)
				}
			}
		}
		if !tr.Done() {
			b.Fatal("tracker not drained")
		}
	}
	_, total := g.CountTasks()
	b.ReportMetric(float64(total), "tasks/graph")
}

// BenchmarkAblationQueues probes the §IV-D intra-node scheduling choice:
// one shared ready queue per node (PaRSEC's dynamic work stealing within
// the node), statically pinned per-worker queues, and pinned queues with
// stealing.
func BenchmarkAblationQueues(b *testing.B) {
	sys := molecule.Benzene631G()
	spec, _ := ccsd.VariantByName("v5")
	for _, mode := range []struct {
		name string
		q    sched.QueueMode
	}{
		{"shared", sched.SharedQueue},
		{"pinned", sched.PerWorker},
		{"pinned-steal", sched.PerWorkerSteal},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := ccsd.RunSim(sys, spec, benchCluster(),
					ccsd.SimRunConfig{CoresPerNode: 7, Queues: mode.q})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Makespan.Seconds()
			}
			b.ReportMetric(last, "sim-s")
		})
	}
}

// schedWorkerSweep mirrors Fig 9's cores-per-node axis for the
// shared-memory scheduler contention benchmarks.
var schedWorkerSweep = []int{1, 4, 8, 16}

var schedQueueModes = []struct {
	name string
	q    sched.QueueMode
}{
	{"shared", sched.SharedQueue},
	{"pinned", sched.PerWorker},
	{"pinned-steal", sched.PerWorkerSteal},
}

// schedFanoutGraph builds a wide fan-out of independent spin tasks: one
// SRC releasing n LEAF tasks whose bodies busy-spin for the given
// duration. With tiny bodies the run time is dominated by scheduler
// dispatch, so time-per-task exposes enqueue/dequeue contention.
func schedFanoutGraph(n int, spin time.Duration) *ptg.Graph {
	g := ptg.NewGraph("sched-fanout")
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
	leaf.Body = func(ctx *ptg.Ctx) { spinFor(spin) }
	return g
}

// schedChainsGraph builds c independent chains of length l (more chains
// than workers), so pinned modes see cross-queue handoffs and stealing.
func schedChainsGraph(c, l int, spin time.Duration) *ptg.Graph {
	g := ptg.NewGraph("sched-chains")
	step := g.Class("STEP")
	step.Domain = func(emit func(ptg.Args)) {
		for ci := 0; ci < c; ci++ {
			for s := 0; s < l; s++ {
				emit(ptg.A2(ci, s))
			}
		}
	}
	step.Priority = func(a ptg.Args) int64 { return int64(c - a[0]) }
	step.AddFlow("D", ptg.RW).
		InNew(func(a ptg.Args) bool { return a[1] == 0 }, func(a ptg.Args) int64 { return 8 }).
		In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "STEP", Args: ptg.A2(a[0], a[1]-1)}, "D"
		}).
		Out(func(a ptg.Args) bool { return a[1] < l-1 }, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "STEP", Args: ptg.A2(a[0], a[1]+1)}, "D"
		})
	step.Body = func(ctx *ptg.Ctx) { spinFor(spin) }
	return g
}

// spinFor busy-waits, standing in for a short compute kernel without
// yielding the worker goroutine the way time.Sleep would.
func spinFor(d time.Duration) {
	if d <= 0 {
		return
	}
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}

// runSchedGraph executes one contention-benchmark graph and returns the
// report; shared by the benchmarks and the CI smoke test.
func runSchedGraph(g *ptg.Graph, workers int, q sched.QueueMode) (runtime.Report, error) {
	return runtime.Run(g, runtime.Config{Workers: workers, Queues: q})
}

// BenchmarkSchedFanout measures scheduler dispatch overhead on a
// 2048-task fan-out across the Fig 9-style worker sweep; "ns/task" is
// wall time per executed task (lower = less scheduler contention).
func BenchmarkSchedFanout(b *testing.B) {
	const tasks = 2048
	g := schedFanoutGraph(tasks, time.Microsecond)
	for _, mode := range schedQueueModes {
		for _, workers := range schedWorkerSweep {
			mode, workers := mode, workers
			b.Run(fmt.Sprintf("%s/workers-%d", mode.name, workers), func(b *testing.B) {
				var rep runtime.Report
				for i := 0; i < b.N; i++ {
					var err error
					rep, err = runSchedGraph(g, workers, mode.q)
					if err != nil {
						b.Fatal(err)
					}
					if rep.Tasks != tasks+1 {
						b.Fatalf("tasks = %d, want %d", rep.Tasks, tasks+1)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rep.Tasks), "ns/task")
			})
		}
	}
}

// BenchmarkSchedChains measures the same sweep on 64 dependency chains
// of 32 steps each: every completion triggers a delivery, so this path
// stresses completion/dataflow next to dispatch.
func BenchmarkSchedChains(b *testing.B) {
	const chains, length = 64, 32
	g := schedChainsGraph(chains, length, time.Microsecond)
	for _, mode := range schedQueueModes {
		for _, workers := range schedWorkerSweep {
			mode, workers := mode, workers
			b.Run(fmt.Sprintf("%s/workers-%d", mode.name, workers), func(b *testing.B) {
				var rep runtime.Report
				for i := 0; i < b.N; i++ {
					var err error
					rep, err = runSchedGraph(g, workers, mode.q)
					if err != nil {
						b.Fatal(err)
					}
					if rep.Tasks != chains*length {
						b.Fatalf("tasks = %d, want %d", rep.Tasks, chains*length)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rep.Tasks), "ns/task")
			})
		}
	}
}

// BenchmarkTrackerBuild measures ptg.NewTracker on the benchmark's
// dispatch-bound shape (12/24 orbitals tiled at 4, 28,304 instances):
// "unbound" inspects the graph into a private skeleton first, as the
// simulator, a socket-runtime rank or any hand-built graph does; "bound"
// is what every run of a compiled plan pays — two slabs and a copy.
func BenchmarkTrackerBuild(b *testing.B) {
	spec, _ := ccsd.VariantByName("v5")
	plan := ccsd.Compile(molecule.Custom("dispatch", 12, 24, 4, 2, 1), spec, ccsd.Options{Nodes: 1})
	for _, c := range []struct {
		name string
		g    *ptg.Graph
	}{
		{"unbound", ccsd.BuildGraph(plan.Workload, spec, ccsd.Options{Nodes: plan.Nodes})},
		{"bound", plan.NewGraph(nil)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var tr *ptg.Tracker
			for i := 0; i < b.N; i++ {
				var err error
				if tr, err = ptg.NewTracker(c.g); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.NumInstances()), "instances")
		})
	}
}

// BenchmarkHeapPopDeep drains a 16k-entry ready heap whose priorities
// follow the paper's per-chain expression — the depth the shared queue
// reaches on the dispatch-bound workload, where every pop sifts ~14
// levels under the shard lock.
func BenchmarkHeapPopDeep(b *testing.B) {
	const depth = 16384
	var full sched.Heap
	for seq := 0; seq < depth; seq++ {
		full.PushTask(&ptg.Instance{Priority: int64(seq * 7919 % 1382), Seq: seq})
	}
	h := make(sched.Heap, depth)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h = h[:depth]
		copy(h, full)
		for len(h) > 0 {
			h.PopTask()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/depth, "ns/pop")
}

// BenchmarkQueuePreloadedDrain is the same 16k tasks the way a run now
// meets them: handed to the queue as one sorted run (the order a plan's
// skeleton keeps), then popped to empty while every eighth pop pushes a
// successor that outranks the run — so the heap holds a task or two and
// a pop is a cursor step or a one-level sift, not a 14-level one.
func BenchmarkQueuePreloadedDrain(b *testing.B) {
	const depth = 16384
	sorted := make([]*ptg.Instance, depth)
	for seq := range sorted {
		sorted[seq] = &ptg.Instance{Priority: int64(seq * 7919 % 1382), Seq: seq}
	}
	slices.SortFunc(sorted, func(x, y *ptg.Instance) int {
		if sched.Before(x, y) {
			return -1
		}
		return 1
	})
	succ := make([]ptg.Instance, depth/8)
	for i := range succ {
		succ[i] = ptg.Instance{Priority: 1 << 20, Seq: depth + i}
	}
	run := make([]*ptg.Instance, depth)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(run, sorted)
		q := sched.NewQueue(sched.PriorityOrder, sched.SharedQueue)
		q.Preload(run)
		for n := 0; q.Len() > 0; n++ {
			q.Pop()
			if n%8 == 0 && n/8 < len(succ) {
				q.Push(&succ[n/8])
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(depth+depth/8), "ns/pop")
}

// BenchmarkT1Kernel runs the T1-shaped kernel (the generalization beyond
// the paper's ported subroutine) through the simulator.
func BenchmarkT1Kernel(b *testing.B) {
	sys := molecule.Benzene631G()
	spec, _ := ccsd.VariantByName("v5")
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := ccsd.RunSim(sys, spec, benchCluster(),
			ccsd.SimRunConfig{CoresPerNode: 7, Kernel: "t1_2"})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Makespan.Seconds()
	}
	b.ReportMetric(last, "sim-s")
}

// BenchmarkAblationWriteSpan sweeps the Fig 8 block-spanning factor: how
// many nodes each output block (and hence each chain's WRITE work) is
// split across.
func BenchmarkAblationWriteSpan(b *testing.B) {
	sys := molecule.Benzene631G()
	v5, _ := ccsd.VariantByName("v5")
	for _, span := range []int{1, 2, 4} {
		spec, err := v5.Append(xform.SpanWrites{Span: span})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("span-%d", span), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := ccsd.RunSim(sys, spec, benchCluster(),
					ccsd.SimRunConfig{CoresPerNode: 7})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Makespan.Seconds()
			}
			b.ReportMetric(last, "sim-s")
		})
	}
}
