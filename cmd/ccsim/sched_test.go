package main

import (
	"strings"
	"testing"
)

func sampleSchedTable() *SchedTable {
	t := &SchedTable{Title: "scheduler sweep"}
	t.Add(SchedRow{
		Config: "shared", Workers: 8, Tasks: 2049, Seconds: 0.002,
		Parks: 12, Wakes: 30, MaxQueueDepth: 2048,
		PerWorkerTasks: []int64{256, 256, 256, 256, 256, 256, 256, 257},
	})
	t.Add(SchedRow{
		Config: "pinned-steal", Workers: 8, Tasks: 2049, Seconds: 0.003,
		StealAttempts: 40, Steals: 10, Parks: 5, Wakes: 9, MaxQueueDepth: 300,
		PerWorkerTasks: []int64{2049, 0, 0, 0, 0, 0, 0, 0},
	})
	return t
}

func TestSchedRowImbalance(t *testing.T) {
	even := SchedRow{PerWorkerTasks: []int64{10, 10, 10, 10}}
	if got := even.Imbalance(); got != 1.0 {
		t.Errorf("even imbalance = %v, want 1.0", got)
	}
	skew := SchedRow{PerWorkerTasks: []int64{40, 0, 0, 0}}
	if got := skew.Imbalance(); got != 4.0 {
		t.Errorf("skewed imbalance = %v, want 4.0", got)
	}
	if got := (SchedRow{}).Imbalance(); got != 0 {
		t.Errorf("empty imbalance = %v, want 0", got)
	}
	if got := (SchedRow{PerWorkerTasks: []int64{0, 0}}).Imbalance(); got != 0 {
		t.Errorf("zero-task imbalance = %v, want 0", got)
	}
}

func TestSchedTableWriteTable(t *testing.T) {
	var b strings.Builder
	if err := sampleSchedTable().WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"scheduler sweep", "config", "shared", "pinned-steal", "10/40", "2048"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Non-stealing rows show "-" in the steals column.
	if !strings.Contains(out, "-") {
		t.Errorf("no placeholder for non-stealing row:\n%s", out)
	}
}
