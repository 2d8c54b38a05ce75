package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleKernelReport() *KernelReport {
	return &KernelReport{
		Title:     "kernel sweep",
		GoVersion: "go1.24.0",
		Arch:      "amd64",
		CPUs:      1,
		Results: []KernelResult{
			{Kernel: "gemm", Shape: "TN m=121 n=121 k=121", Workload: "benzene",
				Count: 12, Iters: 100, NsPerOp: 125000, BytesPerOp: 351384, MBPerSec: 2811, GFlops: 28.3},
			{Kernel: "sort4", Shape: "11x11x11x11 perm=[2 0 3 1]", Workload: "benzene",
				Count: 4, Iters: 5000, NsPerOp: 17000, BytesPerOp: 234256, MBPerSec: 13780},
		},
	}
}

func TestKernelReportJSONRoundTrip(t *testing.T) {
	r := sampleKernelReport()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back KernelReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 2 || back.Results[0].GFlops != 28.3 || back.Results[1].Kernel != "sort4" {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	// The data-movement kernel reports no flops field at all.
	if strings.Contains(buf.String(), `"gflops": 0`) {
		t.Fatalf("zero gflops should be omitted:\n%s", buf.String())
	}
}

func TestKernelReportTable(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleKernelReport().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"kernel sweep", "TN m=121 n=121 k=121", "28.30", "sort4"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestKernelReportCompare pins the bench-kernels regression guard: a
// >tolFrac ns/op increase on a matching (kernel, shape, workload) row is
// flagged, improvements and new/vanished rows are not, and a different
// environment skips row checks entirely with one explanatory message.
func TestKernelReportCompare(t *testing.T) {
	base := sampleKernelReport()
	cur := sampleKernelReport()
	if msgs := cur.Compare(nil, 0.10); msgs != nil {
		t.Errorf("nil baseline produced %v", msgs)
	}
	if msgs := cur.Compare(base, 0.10); len(msgs) != 0 {
		t.Errorf("identical reports flagged: %v", msgs)
	}

	cur.Results[0].NsPerOp = base.Results[0].NsPerOp * 1.25 // regression
	cur.Results[1].NsPerOp = base.Results[1].NsPerOp * 0.5  // improvement
	cur.Results = append(cur.Results, KernelResult{
		Kernel: "gemm-par", Shape: "TN m=121 n=121 k=121 w=4", Workload: "benzene", NsPerOp: 99999,
	}) // new row: no baseline, ignored
	msgs := cur.Compare(base, 0.10)
	if len(msgs) != 1 {
		t.Fatalf("got %d messages, want 1: %v", len(msgs), msgs)
	}
	if !strings.Contains(msgs[0], "gemm") || !strings.Contains(msgs[0], "+25.0%") {
		t.Errorf("message = %q, want the gemm row with +25.0%%", msgs[0])
	}
	// Within tolerance is clean.
	cur.Results[0].NsPerOp = base.Results[0].NsPerOp * 1.05
	if msgs := cur.Compare(base, 0.10); len(msgs) != 0 {
		t.Errorf("5%% drift flagged at 10%% tolerance: %v", msgs)
	}

	// Environment change: one skip message, no row checks.
	cur.Results[0].NsPerOp = base.Results[0].NsPerOp * 10
	cur.Tier = "portable"
	msgs = cur.Compare(base, 0.10)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "environment changed") {
		t.Errorf("tier change: got %v, want one environment-changed message", msgs)
	}
}

// TestKernelReportTableTier pins that a tiered report names its tier in
// the environment line.
func TestKernelReportTableTier(t *testing.T) {
	r := sampleKernelReport()
	r.Tier = "avx512"
	var buf bytes.Buffer
	if err := r.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "avx512 kernels") {
		t.Errorf("table missing tier:\n%s", buf.String())
	}
}
