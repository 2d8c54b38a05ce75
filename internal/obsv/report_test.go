package obsv

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// sampleProfile has eight workers of which the report prints the worst
// two; the other six carry smaller bubbles.
func sampleProfile() *Profile {
	workers := []WorkerProfile{
		{Node: 0, Thread: 1, Tasks: 160, Busy: 2_100_000_000, Idle: 400_000_000, StartupIdle: 0, LongestBubble: 300_000_000, BubbleStart: 1_200_000_000},
		{Node: 1, Thread: 3, Tasks: 150, Busy: 1_900_000_000, Idle: 600_000_000, StartupIdle: 500_000_000, LongestBubble: 500_000_000, BubbleStart: 0},
	}
	for len(workers) < 8 {
		workers = append(workers, WorkerProfile{Node: 0, Thread: 10 + len(workers), Tasks: 150, Busy: 2_300_000_000, Idle: 200_000_000, LongestBubble: 100_000_000})
	}
	return &Profile{
		Name:  "v4 sim water 2n x 4c",
		Span:  2_500_000_000,
		Tasks: 1234,
		Classes: []ClassProfile{
			{Class: "GEMM", Count: 800, P50: 1_200_000, P95: 3_400_000, P99: 4_100_000, Max: 5_000_000, Total: 1_100_000_000},
			{Class: "SORT", Count: 200, P50: 400_000, P95: 900_000, P99: 950_000, Max: 1_000_000, Total: 90_000_000},
			{Class: "NXTVAL", Count: 234, P50: 800, P95: 2_000, P99: 2_300, Max: 2_500, Total: 250_000},
		},
		Workers: workers,
		Idle: IdleSummary{
			TotalIdle:      2_400_000_000,
			MeanIdleFrac:   0.12,
			MeanStartup:    150_000_000,
			MaxBubble:      500_000_000,
			MaxBubbleAt:    0,
			MaxBubbleOwner: "n1/t3",
		},
		Ramp: &RampStat{Class: "GEMM", Mean: 70_000_000, Max: 500_000_000, MeanFrac: 0.028, MaxFrac: 0.2},
		Comm: &CommStats{
			GetOps: 4000, GetBytes: 3_200_000_000,
			AccOps: 1000, AccBytes: 700_000_000,
			ByClass: map[string]int64{"WRITE": 650_000_000},
		},
		Crit: &CritPath{
			Length: 200_000_000, TotalWork: 1_200_000_000, MaxSpeedup: 6.0, Tasks: 60,
			Shares: []PathShare{
				{Class: "GEMM", Tasks: 40, Time: 160_000_000, Frac: 0.8},
				{Class: "WRITE", Tasks: 10, Time: 30_000_000, Frac: 0.15},
				{Class: "READ", Tasks: 10, Time: 10_000_000, Frac: 0.05},
			},
		},
	}
}

// TestProfileReportGolden pins the exact rendering of the -profile
// report table. Regenerate with: go test ./internal/obsv -run Golden -update
func TestProfileReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProfile(&buf, sampleProfile(), 2); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "profile_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report drifted from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
}

func TestProfileReportOmitsEmptySections(t *testing.T) {
	p := &Profile{Name: "empty"}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p, 8); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, section := range []string{"task durations", "idle:", "communication volume", "critical path", "fault recovery", "slowdown vs fault-free"} {
		if bytes.Contains([]byte(out), []byte(section)) {
			t.Errorf("empty report contains %q section:\n%s", section, out)
		}
	}
}

// TestWriteProfileZeroSpan: a profile whose only span is instantaneous
// (span 0) renders with every section attached.
func TestWriteProfileZeroSpan(t *testing.T) {
	byNode, sk := recorded(t, rec{0, 0, "NXTVAL", 7, 7})
	p := FromSpans("instant", byNode, sk)
	p.SetRamp("NXTVAL", byNode, sk)
	p.SetComm(CommStats{})
	p.SetRecovery(Recovery{})
	p.SetSlowdown(0, []SlowdownCause{{Cause: "straggler n0", Time: 5}})
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p, 4); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1 tasks over 0ns", "idle: 1 workers", "time to first NXTVAL", "fault recovery", "slowdown vs fault-free: +0ns"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("report missing %q:\n%s", want, buf.Bytes())
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	for _, tc := range []struct {
		ns   int64
		want string
	}{{500, "500ns"}, {1_500, "1.5us"}, {2_500_000, "2.50ms"}, {3_000_000_000, "3.000s"}} {
		if got := fmtNS(tc.ns); got != tc.want {
			t.Errorf("fmtNS(%d) = %q, want %q", tc.ns, got, tc.want)
		}
	}
	for _, tc := range []struct {
		b    int64
		want string
	}{{12, "12B"}, {4_000, "4.0kB"}, {2_500_000, "2.50MB"}, {3_200_000_000, "3.20GB"}} {
		if got := FormatBytes(tc.b); got != tc.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tc.b, got, tc.want)
		}
	}
}

// TestProfileReportRecoverySections pins the fault-recovery line netrun's
// counters render as, and the slowdown-attribution section.
func TestProfileReportRecoverySections(t *testing.T) {
	p := &Profile{
		Name: "perturbed", Span: 2_600_000_000, Tasks: 10,
		Recov: &Recovery{Retries: 3, DupSuppressed: 1, RetransmitBytes: 2_000_000},
		Slow: &Slowdown{
			BaselineSpan: 2_500_000_000,
			Loss:         100_000_000,
			Causes: []SlowdownCause{
				{Cause: "straggler n0", Time: 80_000_000, Frac: 0.8},
				{Cause: "latency spikes", Time: 150_000, Frac: 0.0015},
			},
		},
	}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p, 8); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"fault recovery\nretries 3, 1 duplicates suppressed, retransmitted 2.00MB\n\n",
		"slowdown vs fault-free: +100.00ms (baseline 2.500s, perturbed 2.600s)",
		"straggler n0",
		"80.0%",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// A faster perturbed run renders a negative delta, not garbage.
	p.Slow.Loss = -50_000_000
	p.Slow.Causes = nil
	buf.Reset()
	if err := WriteProfile(&buf, p, 8); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !bytes.Contains([]byte(out), []byte("-50.00ms")) {
		t.Errorf("negative loss not rendered as signed delta:\n%s", out)
	}
}
