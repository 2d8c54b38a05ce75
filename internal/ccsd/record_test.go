package ccsd

import (
	"fmt"
	"reflect"
	"testing"

	"parsec/internal/molecule"
	"parsec/internal/obsv"
	"parsec/internal/ptg"
	"parsec/internal/sched"
	"parsec/internal/trace"
)

// TestProfileFromSpansMatchesTrace runs the water plan recorded, at
// 1/2/4 workers in every queue mode, asking for both things a recorded
// run can give: the profile straight from the spans (what the service
// keeps per job) and the labelled trace built from the same spans when
// the run ends. The profile must be, field for field, what FromTrace
// computes from that trace — the path every job took before spans — and
// every event's class and label must be those of the instance the span
// names, as the per-task Observer used to format them.
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
	for _, q := range []sched.QueueMode{sched.SharedQueue, sched.PerWorker, sched.PerWorkerSteal} {
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("water v5 %v/%d", q, workers)
			tr := trace.New()
			res, got, err := plan.ExecuteProfiled(name, ExecConfig{Workers: workers, Queue: q, Trace: tr})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(res.Report.Spans) != len(insts) || tr.Len() != len(insts) {
				t.Fatalf("%s: %d spans, %d events for %d instances", name, len(res.Report.Spans), tr.Len(), len(insts))
			}
			if want := obsv.FromTrace(name, tr); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: profile from spans\n%+v\nprofile from the trace of the same spans\n%+v", name, got, want)
			}
			if int(got.Tasks) != len(insts) || len(got.Workers) == 0 || len(got.Workers) > workers || len(got.Classes) == 0 {
				t.Errorf("%s: profile covers %d tasks, %d workers, %d classes", name, got.Tasks, len(got.Workers), len(got.Classes))
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
