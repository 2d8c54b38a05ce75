package ccsd

import (
	"fmt"
	"reflect"
	"testing"

	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/sched"
	"parsec/internal/trace"
)

// TestProfileFromSpansMatchesTrace runs the water plan recorded, at
// 1/2/4 workers in every queue mode, and reads both things a recorded
// run gives: the profile straight from the spans (what the service keeps
// per job) and the labelled trace of the same spans. The profile must
// cover every task and count each class's instances, and every event's class and label must be those of
// the instance the span names: its class name and TaskRef.String().
// (That FromSpans folds spans as the labelled trace's reference fold
// does is obsv's TestFromSpansMatchesReference.)
func TestProfileFromSpansMatchesTrace(t *testing.T) {
	spec, err := VariantByName("v5")
	if err != nil {
		t.Fatal(err)
	}
	plan := Compile(molecule.Water631G(), spec, Options{Nodes: 1})
	tracker, err := ptg.NewTracker(plan.NewGraph(nil))
	if err != nil {
		t.Fatal(err)
	}
	insts := tracker.Instances()
	perClass := map[string]int64{}
	for _, in := range insts {
		perClass[in.Ref.Class]++
	}
	sk, err := plan.skeleton(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []sched.QueueMode{sched.SharedQueue, sched.PerWorker, sched.PerWorkerSteal} {
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("water v5 %v/%d", q, workers)
			res, got, err := plan.ExecuteProfiled(name, ExecConfig{Workers: workers, Queue: q})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tr := trace.New()
			tr.AddSpans(0, res.Report.Spans, sk)
			if len(res.Report.Spans) != len(insts) || tr.Len() != len(insts) {
				t.Fatalf("%s: %d spans, %d events for %d instances", name, len(res.Report.Spans), tr.Len(), len(insts))
			}
			if int(got.Tasks) != len(insts) || len(got.Workers) == 0 || len(got.Workers) > workers || len(got.Classes) != len(perClass) {
				t.Errorf("%s: profile covers %d tasks, %d workers, %d classes", name, got.Tasks, len(got.Workers), len(got.Classes))
			}
			for _, c := range got.Classes {
				if c.Count != perClass[c.Class] {
					t.Errorf("%s: profile counts %d %s, the plan has %d", name, c.Count, c.Class, perClass[c.Class])
				}
			}
			if err := tr.Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			for _, ev := range tr.Events() {
				if ref := insts[ev.Seq].Ref; ev.Class != ref.Class || ev.Label != ref.String() || ev.Node != 0 {
					t.Fatalf("%s: Seq %d materialised as n%d %q / %q, instance is %v", name, ev.Seq, ev.Node, ev.Class, ev.Label, ref)
				}
			}
		}
	}
}

// TestRecordingAllocatesPerWorkerNotPerTask pins what recording costs a
// job in allocations: the workers' span buffers, the hand-over and the
// profile — a count that grows with workers and classes, not with the
// plan's 1,216 tasks. The recorder this replaced formatted a label per
// task (two allocations each).
func TestRecordingAllocatesPerWorkerNotPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	spec, err := VariantByName("v5")
	if err != nil {
		t.Fatal(err)
	}
	plan := Compile(molecule.Water631G(), spec, Options{Nodes: 1})
	n, err := plan.NumTasks()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		cfg := ExecConfig{Workers: workers}
		plain := testing.AllocsPerRun(5, func() {
			if _, err := plan.Execute(cfg); err != nil {
				t.Fatal(err)
			}
		})
		recorded := testing.AllocsPerRun(5, func() {
			if _, _, err := plan.ExecuteProfiled("pin", cfg); err != nil {
				t.Fatal(err)
			}
		})
		extra := recorded - plain
		t.Logf("%d workers, %d tasks: %.0f allocations plain, %.0f recorded (+%.0f)", workers, n, plain, recorded, extra)
		// Per worker: its buffer, perhaps grown twice when the split is
		// lopsided, and its profile row; per run: the flat hand-over,
		// the profile, its histograms and class rows.
		if limit := float64(4*workers + 16); extra > limit {
			t.Errorf("%d workers: recording costs %.0f allocations over an unrecorded run, want <= %.0f (the plan has %d tasks)", workers, extra, limit, n)
		}
	}
}

// TestSimulateRecordsOneSpanPerInstance pins the simulator's recording
// contract: a traced Simulate returns exactly the result of an untraced
// one, and hands the trace one span per instance, on the instance's
// node, each node's spans grouped by worker in increasing order and in
// start order within a worker — the layout obsv.FromSpans walks — that
// Validate accepts.
func TestSimulateRecordsOneSpanPerInstance(t *testing.T) {
	const nodes, cores = 4, 3
	for _, name := range []string{"v2", "v4", "v5"} {
		spec, err := VariantByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plan := Compile(molecule.Water631G(), spec, Options{Nodes: nodes})
		tracker, err := ptg.NewTracker(plan.NewGraph(nil))
		if err != nil {
			t.Fatal(err)
		}
		insts := tracker.Instances()
		for _, q := range []sched.QueueMode{sched.SharedQueue, sched.PerWorkerSteal} {
			what := fmt.Sprintf("%s/%v", name, q)
			plain, err := plan.Simulate(simConfig(nodes, cores), SimRunConfig{CoresPerNode: cores, Queues: q})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			tr := trace.New()
			traced, err := plan.Simulate(simConfig(nodes, cores), SimRunConfig{CoresPerNode: cores, Queues: q, Trace: tr})
			if err != nil {
				t.Fatalf("%s traced: %v", what, err)
			}
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("%s: traced result\n%+v\nuntraced\n%+v", what, traced, plain)
			}
			byNode, _ := tr.Spans()
			seen := make([]bool, len(insts))
			for node, spans := range byNode {
				for i, sp := range spans {
					if int(sp.Seq) >= len(insts) || seen[sp.Seq] || insts[sp.Seq].Node != node || sp.Worker >= cores {
						t.Fatalf("%s: node %d span %+v: unknown, repeated, off its node or off the machine", what, node, sp)
					}
					seen[sp.Seq] = true
					if i > 0 {
						if prev := spans[i-1]; sp.Worker < prev.Worker || sp.Worker == prev.Worker && sp.Start < prev.End {
							t.Fatalf("%s: node %d span %+v follows %+v", what, node, sp, prev)
						}
					}
				}
			}
			if tr.Len() != len(insts) {
				t.Errorf("%s: %d spans for %d instances", what, tr.Len(), len(insts))
			}
			if err := tr.Validate(); err != nil {
				t.Errorf("%s: %v", what, err)
			}
		}
	}
}
