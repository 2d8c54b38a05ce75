package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// KernelResult is one measured kernel configuration of the -kernels
// sweep: a (kernel, tile shape) pair taken from a real workload, with
// its benchmark numbers.
type KernelResult struct {
	// Kernel names the operation: "gemm" (the production blocked path),
	// "sort4" (the permutation kernel) or "fill" (the synthetic input
	// generator).
	Kernel string `json:"kernel"`
	// Shape is a human-readable shape key, e.g. "TN m=121 n=121 k=121"
	// or "36x37x36x37 perm=[2 0 3 1]".
	Shape string `json:"shape"`
	// Workload is the molecule preset the shape was harvested from.
	Workload string `json:"workload"`
	// Count is how many times the shape occurs in that workload.
	Count int `json:"count"`
	// Iters is the number of benchmark iterations measured.
	Iters int `json:"iters"`
	// NsPerOp is the measured wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is the memory the operation touches (inputs + outputs).
	BytesPerOp int64 `json:"bytes_per_op"`
	// MBPerSec is BytesPerOp normalized by time.
	MBPerSec float64 `json:"mb_per_sec"`
	// GFlops is the arithmetic rate; zero for pure data-movement kernels.
	GFlops float64 `json:"gflops,omitempty"`
}

// KernelReport is the BENCH_kernels.json baseline: the dense-kernel
// layer measured over the tile shapes the real workloads produce.
type KernelReport struct {
	// Title describes the sweep.
	Title string `json:"title"`
	// GoVersion, Arch and CPUs pin the environment the baseline was
	// taken on; compare like with like.
	GoVersion string `json:"go_version"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	// Tier is the micro-kernel dispatch tier the sweep ran on
	// ("portable", "avx2", "avx512"); empty in baselines taken before
	// tiered dispatch existed.
	Tier    string         `json:"tier,omitempty"`
	Results []KernelResult `json:"results"`
}

// Compare checks this report against a baseline and returns one message
// per kernel row that regressed: same (kernel, shape, workload) key,
// ns/op more than tolFrac above the baseline's. Rows new in either
// report are ignored (the sweep tracks workloads, so keys come and go),
// as is everything when the environments differ — cross-machine or
// cross-tier ns/op comparisons would flag hardware, not code.
func (r *KernelReport) Compare(base *KernelReport, tolFrac float64) []string {
	if base == nil {
		return nil
	}
	if r.Arch != base.Arch || r.CPUs != base.CPUs || r.Tier != base.Tier {
		return []string{fmt.Sprintf(
			"environment changed (%s/%d cpus/%q vs %s/%d cpus/%q): baseline not comparable, skipping row checks",
			r.Arch, r.CPUs, r.Tier, base.Arch, base.CPUs, base.Tier)}
	}
	type key struct{ kernel, shape, workload string }
	old := make(map[key]KernelResult, len(base.Results))
	for _, res := range base.Results {
		old[key{res.Kernel, res.Shape, res.Workload}] = res
	}
	var msgs []string
	for _, res := range r.Results {
		b, ok := old[key{res.Kernel, res.Shape, res.Workload}]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		if res.NsPerOp > b.NsPerOp*(1+tolFrac) {
			msgs = append(msgs, fmt.Sprintf("%s %s (%s): %.0f ns/op vs baseline %.0f (+%.1f%%)",
				res.Kernel, res.Shape, res.Workload, res.NsPerOp, b.NsPerOp,
				100*(res.NsPerOp/b.NsPerOp-1)))
		}
	}
	return msgs
}

// WriteJSON writes the report as indented JSON.
func (r *KernelReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable writes the report as an aligned text table.
func (r *KernelReport) WriteTable(w io.Writer) error {
	env := fmt.Sprintf("go %s %s, %d cpus", r.GoVersion, r.Arch, r.CPUs)
	if r.Tier != "" {
		env += ", " + r.Tier + " kernels"
	}
	if _, err := fmt.Fprintf(w, "%s\n%s\n\n", r.Title, env); err != nil {
		return err
	}
	header := fmt.Sprintf("%-7s %-34s %-13s %6s %12s %10s %9s",
		"kernel", "shape", "workload", "count", "ns/op", "MB/s", "GFlop/s")
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(header))); err != nil {
		return err
	}
	for _, res := range r.Results {
		gf := "-"
		if res.GFlops > 0 {
			gf = fmt.Sprintf("%.2f", res.GFlops)
		}
		if _, err := fmt.Fprintf(w, "%-7s %-34s %-13s %6d %12.0f %10.0f %9s\n",
			res.Kernel, res.Shape, res.Workload, res.Count, res.NsPerOp, res.MBPerSec, gf); err != nil {
			return err
		}
	}
	return nil
}
