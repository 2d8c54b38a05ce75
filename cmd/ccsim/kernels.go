package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"parsec/internal/molecule"
	"parsec/internal/tce"
	"parsec/internal/team"
	"parsec/internal/tensor"
)

// The kernels subcommand: benchmark the dense-kernel layer (blocked
// GEMM — serial and team-split — the SORT_4 permutations, and the
// synthetic input fill) over the tile shapes the real workloads
// produce, and emit the result as the committed BENCH_kernels.json
// baseline. Shapes are harvested from the inspection phase of each
// preset, so the sweep tracks the workloads rather than a hand-picked
// list. With -baseline the fresh sweep is diffed against a committed
// baseline and >10% ns/op regressions fail the run (the make
// bench-kernels guard).

// kernelPresets are the workloads the sweep harvests shapes from.
var kernelPresets = []string{"water", "benzene", "uracil", "betacarotene"}

// maxShapesPerKind caps how many distinct shapes per (workload, kernel)
// are benchmarked, most-frequent first. -quick keeps one shape of the
// first preset.
const maxShapesPerKind = 4

// gemmParWorkers is the team size the gemm-par rows split across,
// matching the acceptance target of four lent workers.
const gemmParWorkers = 4

// gemmParMinProduct mirrors the m*n*k cutoff below which GemmP runs
// serially (tensor's gemmParCutoff); smaller shapes get no gemm-par row
// because it would duplicate the gemm row.
const gemmParMinProduct = 96 * 96 * 96

type gemmShape struct{ m, n, k int }

type sortShape struct {
	src  [4]int
	perm [4]int
}

// harvestShapes runs the inspection phase for a preset and returns its
// distinct GEMM and SORT_4 shapes with occurrence counts, and the
// extents of its input blocks with the number of blocks of each.
func harvestShapes(preset string) (map[gemmShape]int, map[sortShape]int, map[[4]int]int, error) {
	sys, err := molecule.Preset(preset)
	if err != nil {
		return nil, nil, nil, err
	}
	w := tce.Inspect(tce.T2_7(sys), nil)
	gemms := map[gemmShape]int{}
	sorts := map[sortShape]int{}
	fills := map[[4]int]int{}
	for _, c := range w.Chains {
		for _, g := range c.Gemms {
			gemms[gemmShape{g.Op.M, g.Op.N, g.Op.K}]++
		}
		for _, s := range c.Sorts {
			sorts[sortShape{src: c.CDims, perm: s.Perm}]++
		}
	}
	ta, tb := w.Inputs()
	for _, t := range []*tce.InputTable{ta, tb} {
		for _, b := range t.Blocks {
			fills[b.Dims]++
		}
	}
	return gemms, sorts, fills, nil
}

// topShapes returns the keys of counts sorted by descending count (ties
// by the render string for determinism), truncated to max.
func topShapes[K comparable](counts map[K]int, max int, render func(K) string) []K {
	keys := make([]K, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return render(keys[i]) < render(keys[j])
	})
	if len(keys) > max {
		keys = keys[:max]
	}
	return keys
}

// benchGemm times the production call shape — dgemm('T','N') per Fig 1 —
// serially, or split across pool when it is non-nil.
func benchGemm(s gemmShape, pool *team.Pool) testing.BenchmarkResult {
	a := tensor.NewMatrix(s.k, s.m)
	b := tensor.NewMatrix(s.k, s.n)
	c := tensor.NewMatrix(s.m, s.n)
	ta := tensor.NewTile4(s.k, s.m, 1, 1)
	ta.FillRandom(1, 1)
	copy(a.Data, ta.Data)
	tb := tensor.NewTile4(s.k, s.n, 1, 1)
	tb.FillRandom(2, 1)
	copy(b.Data, tb.Data)
	var par team.Parallelism // a nil *team.Pool would be a non-nil handle
	if pool != nil {
		par = pool
	}
	return testing.Benchmark(func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			tensor.GemmP(par, nil, a, b, c)
		}
	})
}

// benchSort times one SORT_4 permutation: the plain copy form, or (add)
// the production accumulate form, where the merged SORT body folds every
// permutation of a chain result straight into one destination.
func benchSort(s sortShape, add bool) testing.BenchmarkResult {
	src := tensor.NewTile4(s.src[0], s.src[1], s.src[2], s.src[3])
	src.FillRandom(3, 1)
	d := src.SortedDims(s.perm)
	dst := tensor.NewTile4(d[0], d[1], d[2], d[3])
	return testing.Benchmark(func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			if add {
				tensor.Sort4Add(dst, src, s.perm, -1)
			} else {
				tensor.Sort4(dst, src, s.perm, -1)
			}
		}
	})
}

// benchFill times the synthetic fill of one input block, the body of
// every READ task's first ga_access.
func benchFill(dims [4]int) testing.BenchmarkResult {
	t := tensor.NewTile4(dims[0], dims[1], dims[2], dims[3])
	return testing.Benchmark(func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			t.FillRandom(uint64(i), 0.5)
		}
	})
}

// kernelsCmd executes the sweep, prints the table, writes the JSON
// baseline to -out, and with -baseline fails on >10% ns/op regressions
// against a committed one.
func kernelsCmd(fs *flag.FlagSet) func(io.Writer) error {
	var o options
	o.register(fs, defaults{out: "BENCH_kernels.json"}, "quick", "v", "out")
	basePath := fs.String("baseline", "", "committed baseline to diff the sweep against; >10% ns/op regressions fail the run")
	return func(out io.Writer) error {
		if _, err := o.resolve(); err != nil {
			return err
		}
		presets, maxShapes := kernelPresets, maxShapesPerKind
		if o.quick {
			presets, maxShapes = presets[:1], 1
		}
		report := &KernelReport{
			Title:     "dense-kernel sweep over real workload tile shapes",
			GoVersion: runtime.Version(),
			Arch:      runtime.GOARCH,
			CPUs:      runtime.NumCPU(),
			Tier:      tensor.ActiveKernelTier().String(),
		}
		// add appends one measured row; flops is 0 for the SORT kernels.
		add := func(kernel, shape, preset string, count int, r testing.BenchmarkResult, bytes, flops int64) {
			if o.verbose {
				fmt.Fprintf(os.Stderr, "  %s %s %s\n", kernel, preset, shape)
			}
			ns := float64(r.NsPerOp())
			report.Results = append(report.Results, KernelResult{
				Kernel:     kernel,
				Shape:      shape,
				Workload:   preset,
				Count:      count,
				Iters:      r.N,
				NsPerOp:    ns,
				BytesPerOp: bytes,
				MBPerSec:   float64(bytes) / ns * 1e3,
				GFlops:     float64(flops) / ns,
			})
		}
		tp := team.NewPool(gemmParWorkers)
		defer tp.Close()
		for _, preset := range presets {
			gemms, sorts, fills, err := harvestShapes(preset)
			if err != nil {
				return err
			}
			for _, s := range topShapes(gemms, maxShapes, func(g gemmShape) string {
				return fmt.Sprintf("%08dx%08dx%08d", g.m, g.n, g.k)
			}) {
				bytes := int64(8 * (s.m*s.k + s.k*s.n + s.m*s.n))
				flops := tensor.GemmFlops(s.m, s.n, s.k)
				add("gemm", fmt.Sprintf("TN m=%d n=%d k=%d", s.m, s.n, s.k), preset, gemms[s], benchGemm(s, nil), bytes, flops)
				if s.m*s.n*s.k >= gemmParMinProduct {
					add("gemm-par", fmt.Sprintf("TN m=%d n=%d k=%d w=%d", s.m, s.n, s.k, gemmParWorkers),
						preset, gemms[s], benchGemm(s, tp), bytes, flops)
				}
			}
			for _, s := range topShapes(sorts, maxShapes, func(ss sortShape) string {
				return fmt.Sprintf("%v%v", ss.src, ss.perm)
			}) {
				bytes := tensor.Sort4Bytes(s.src[0] * s.src[1] * s.src[2] * s.src[3])
				shape := fmt.Sprintf("%dx%dx%dx%d perm=%v", s.src[0], s.src[1], s.src[2], s.src[3], s.perm)
				add("sort4", shape, preset, sorts[s], benchSort(s, false), bytes, 0)
				add("sort4add", shape, preset, sorts[s], benchSort(s, true), bytes, 0)
			}
			// One fill row: the preset's most common input-block size.
			for _, d := range topShapes(fills, 1, func(d [4]int) string { return fmt.Sprint(d) }) {
				bytes := int64(8 * d[0] * d[1] * d[2] * d[3])
				add("fill", fmt.Sprintf("%dx%dx%dx%d", d[0], d[1], d[2], d[3]), preset, fills[d], benchFill(d), bytes, 0)
			}
		}
		if err := report.WriteTable(out); err != nil {
			return err
		}
		if err := writeArtifact(out, o.out, report.WriteJSON); err != nil {
			return err
		}
		if *basePath == "" {
			return nil
		}
		base, err := readKernelBaseline(*basePath)
		if err != nil {
			return err
		}
		msgs := report.Compare(base, 0.10)
		if len(msgs) == 0 {
			fmt.Fprintf(out, "no regressions >10%% vs %s\n", *basePath)
			return nil
		}
		for _, m := range msgs {
			fmt.Fprintf(os.Stderr, "regression: %s\n", m)
		}
		return fmt.Errorf("%d kernel rows regressed >10%% vs %s", len(msgs), *basePath)
	}
}

// readKernelBaseline loads a committed BENCH_kernels.json.
func readKernelBaseline(path string) (*KernelReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r KernelReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

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
