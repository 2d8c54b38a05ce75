// Command bench is the repository's one benchmark: five closed-loop
// workloads that between them load every layer of the stack, the
// end-to-end metrics a user of the system would see, and — in a second,
// traced mode — the per-layer split of the same jobs, measured from the
// outside around each layer's public functions. BENCHMARK.json at the
// repository root declares the workloads, metric names, units and
// regression bounds; this program emits exactly those names. See
// README.md beside this file for what each number means.
//
// Usage (from the repository root):
//
//	go -C bench run . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-quick]
//	go -C bench run . -selfcheck [-runs N]
//
// With -workload, one workload runs in this process and the last line
// of standard output is one JSON object {correct, attempted, failed,
// metrics}. Without it, all five run, each in a fresh child process of
// this binary, and a summary table follows. -selfcheck applies the
// acceptance protocol: two sets of runs over distinct seeds, whose
// medians must agree within each metric's bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"strings"
	"time"

	"parsec/internal/tensor"
)

// manifest mirrors BENCHMARK.json, the single declaration of what the
// benchmark measures.
type manifest struct {
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the directory that
// holds BENCHMARK.json: the command runs with bench/ as its directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func loadManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &man, nil
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a workload run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet holds one run's values for a declared list of metrics.
// Every declared metric is reported; one that a workload's jobs never
// cross keeps the value 0.
type metricSet struct {
	decls []metricDecl
	vals  map[string]float64
}

func newMetricSet(decls []metricDecl) *metricSet {
	return &metricSet{decls: decls, vals: make(map[string]float64)}
}

// set records a value. Emitting a name BENCHMARK.json does not declare
// is a bug in the harness, not a runtime condition. A ratio whose
// denominator was never counted (NaN, ±Inf) reads 0, like any metric the
// run did not cross: the result line is JSON, which has no such numbers.
func (m *metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	for _, d := range m.decls {
		if d.Name == name {
			m.vals[name] = v
			return
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not declared in BENCHMARK.json", name))
}

func (m *metricSet) export() map[string]metric {
	out := make(map[string]metric, len(m.decls))
	for _, d := range m.decls {
		out[d.Name] = metric{Value: m.vals[d.Name], Unit: d.Unit}
	}
	return out
}

func (m *metricSet) print(w io.Writer) {
	for _, d := range m.decls {
		if v, ok := m.vals[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
}

// setupEnv is what a workload's set-up is given: the run seed its
// inputs derive from and where files may go.
type setupEnv struct {
	seed   uint64
	root   string // repository root
	outDir string // bench/out: traces and scratch files, git-ignored
}

// instance is a set-up workload. job runs the i-th job of the seeded
// sequence for the given client, checks its result, and returns the
// task instances it executed; with a tracer it records spans around the
// layer calls it makes. layers fills the per-layer metrics after a
// traced loop. close releases everything set-up started.
type instance interface {
	job(i, client int, tr *tracer) (tasks int, err error)
	layers(lc *layerCtx) error
	close()
}

// layerCtx is what a traced loop hands to instance.layers.
type layerCtx struct {
	m           *metricSet
	spans       map[string]layerStat // of the traced jobs in quietJob
	tracedJobs  int
	loop        loopStats
	p50         float64       // untraced median job time of this run
	quietJob    map[int]bool  // successful jobs of undisturbed rounds
	probeBudget time.Duration // time one isolated kernel probe may take
	quick       bool
}

// reps is how often a repeated probe runs: n, or once under -quick.
func (lc *layerCtx) reps(n int) int {
	if lc.quick {
		return 1
	}
	return n
}

// workloadDef binds a declared workload name to its implementation.
// clients is the number of closed-loop client goroutines; the workloads
// that run one job on two workers have one, the service has two, so no
// workload asks for more than the two CPUs the baseline machine has.
type workloadDef struct {
	name    string
	clients int
	// maxJobs, when not 0, ends the loop early. The service keeps every
	// job's record, so its memory grows with the jobs served; capping
	// them compares memory at equal work whatever the machine's speed.
	maxJobs int
	setup   func(env setupEnv) (instance, error)
}

var workloadDefs = []workloadDef{
	{name: "exec_kernel", clients: 1, setup: setupExec(uracilShape, false)},
	{name: "exec_dispatch", clients: 1, setup: setupExec(dispatchShape, true)},
	{name: "netrun_2rank", clients: 1, setup: setupNetrun},
	{name: "serve_small", clients: 2, maxJobs: 3000, setup: setupServe},
	{name: "sim_paper", clients: 1, setup: setupSim},
}

// options are the flags of one workload run.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	quick   bool
}

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median, which one slow set-up cannot move.
const setupReps = 3

// runWorkload sets the workload up, drives its closed loop and prints
// the human-readable numbers to out. The returned report is the
// machine-readable result.
func runWorkload(def workloadDef, o options, man *manifest, env setupEnv, out io.Writer) (report, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	minJobs, slice := 2*def.clients, roundSlice
	reps := setupReps
	if o.trace {
		// Part of a traced run's time goes to the isolated probes.
		budget = budget * 6 / 10
		reps = 1
	}
	if o.quick {
		// One job per client and round: two jobs, or one each.
		budget, slice, minJobs, reps = 0, 0, 2, 1
	}
	probe, err := newQuietProbe()
	if err != nil {
		return report{}, err
	}
	defer probe.close()

	var inst instance
	var setups []float64
	for r := 0; r < reps; r++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = def.setup(env); err != nil {
			return report{}, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	ls, err := runLoop(inst, def.clients, budget, slice, minJobs, def.maxJobs, tr, probe)
	if err != nil {
		return report{}, err
	}
	attempted, failed, tasks := counts(ls.rounds)
	for _, r := range ls.rounds {
		for _, s := range r.samples {
			if s.err != nil {
				fmt.Fprintf(out, "FAILED job %d: %v\n", s.job, s.err)
			}
		}
	}
	rep := report{Correct: failed == 0, Attempted: attempted, Failed: failed}

	// Time metrics come from the rounds the machine was undisturbed
	// around; counts come from every round.
	measurable := func(rounds []round) bool {
		return len(latencies(rounds, false)) > 0 && (!o.trace || len(latencies(rounds, true)) > 0)
	}
	quiet := ls.quietRounds()
	if o.quick || !measurable(quiet) {
		// Two jobs are too few to set any aside; and a long job is a
		// round of its own, so the kept rounds of a short, disturbed run
		// may hold jobs of one kind only.
		quiet = ls.rounds
	}
	if !measurable(quiet) {
		return rep, fmt.Errorf("%s: no job to measure: %d of %d jobs failed", def.name, failed, attempted)
	}
	untraced := latencies(quiet, false)
	p50 := median(untraced)
	fmt.Fprintf(out, "jobs: %d attempted, %d failed (failed_frac %.4g), %d task instances, %.2f s timed\n",
		attempted, failed, float64(failed)/float64(attempted), tasks, ls.wall)
	var walks []float64
	for _, r := range ls.rounds {
		walks = append(walks, r.walkEnd*1e3)
	}
	fmt.Fprintf(out, "rounds: %d of %d undisturbed (probe walk min/p50/p90/max %.3f/%.3f/%.3f/%.3f ms); job_s_p50 over all rounds %.6g s\n",
		len(quiet), len(ls.rounds), ls.minWalk*1e3, median(walks), percentile(walks, 90), percentile(walks, 100), median(latencies(ls.rounds, false)))

	var m *metricSet
	if o.trace {
		m = newMetricSet(man.PerLayer)
		tracePath := filepath.Join(env.outDir, "trace-"+def.name+".json")
		if err := writeChromeTrace(tracePath, tr.spans); err != nil {
			return rep, err
		}
		fmt.Fprintf(out, "trace written to %s\n", tracePath)
		lc := &layerCtx{m: m, loop: ls, p50: p50, quietJob: make(map[int]bool), quick: o.quick}
		if !o.quick {
			lc.probeBudget = 300 * time.Millisecond
		}
		if err := perLayer(lc, inst, quiet, tr.spans, out); err != nil {
			return rep, fmt.Errorf("%s: per-layer metrics: %w", def.name, err)
		}
	} else {
		m = newMetricSet(man.EndToEnd)
		m.set("setup_s", median(setups))
		endToEnd(m, ls, quiet, out)
	}
	m.print(out)
	rep.Metrics = m.export()
	return rep, nil
}

// endToEnd fills the end-to-end metrics of an untraced loop.
func endToEnd(m *metricSet, ls loopStats, quiet []round, out io.Writer) {
	// Throughput and CPU cost are medians over the undisturbed rounds,
	// not ratios of sums, so one slow round cannot move them.
	var rate, cpu []float64
	for _, r := range quiet {
		attempted, failed, _ := counts([]round{r})
		if ok := float64(attempted - failed); ok > 0 {
			rate = append(rate, ok/r.wall)
			cpu = append(cpu, r.cpu/ok)
		}
	}
	untraced := latencies(quiet, false)
	_, _, tasks := counts(ls.rounds)
	m.set("job_s_p50", median(untraced))
	m.set("jobs_per_s", median(rate))
	m.set("cpu_s_per_job", median(cpu))
	m.set("allocs_per_task", float64(ls.mallocs)/float64(tasks))
	m.set("rss_mb_p50", median(ls.rss))
	fmt.Fprintf(out, "resident set: p50/p95/highest of %d samples %.1f/%.1f/%.1f MB\n",
		len(ls.rss), median(ls.rss), percentile(ls.rss, 95), percentile(ls.rss, 100))
	tail := "too few for a tail percentile"
	if pct, ok := tailPercentile(len(untraced)); ok {
		tail = fmt.Sprintf("e2e.job_s_tail p%g = %.6g s", pct, percentile(untraced, pct))
	}
	fmt.Fprintf(out, "end-to-end (job_s_p50 over %d samples; %s):\n", len(untraced), tail)
}

// perLayer fills the per-layer metrics of a traced loop: the harness's
// own diagnostics, then the workload's layers from the spans and
// results of the jobs in undisturbed rounds and from isolated probes.
func perLayer(lc *layerCtx, inst instance, quiet []round, spans []span, out io.Writer) error {
	m := lc.m
	for _, r := range quiet {
		for _, s := range r.samples {
			lc.quietJob[s.job] = s.err == nil
		}
	}
	var kept []span
	for _, s := range spans {
		if lc.quietJob[s.job] {
			kept = append(kept, s)
		}
	}
	lc.spans, lc.tracedJobs = aggregate(kept)
	untraced, traced := latencies(quiet, false), latencies(quiet, true)
	m.set("e2e.samples", float64(len(untraced)))
	m.set("e2e.job_s_p50", lc.p50)
	if pct, ok := tailPercentile(len(untraced)); ok {
		m.set("e2e.job_s_tail_pct", pct)
		m.set("e2e.job_s_tail", percentile(untraced, pct))
	}
	m.set("e2e.quiet_round_share", float64(len(quiet))/float64(len(lc.loop.rounds)))
	m.set("trace.job_s_p50", median(traced))
	m.set("trace.overhead_frac", median(traced)/lc.p50-1)
	writeLayerTable(out, lc.spans, lc.tracedJobs)
	// A failed job is reported by the caller; probing on would only
	// bury that under a second error.
	if _, failed, _ := counts(lc.loop.rounds); failed > 0 {
		return nil
	}
	fmt.Fprintln(out, "per-layer metrics:")
	return inst.layers(lc)
}

// gitCommit asks git for the checked-out commit; a checkout that is not
// a repository has none.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printStamp writes the environment every output carries.
func printStamp(w io.Writer, root, workload string, o options) {
	fmt.Fprintf(w, "bench: workload=%s seed=%d seconds=%g trace=%t quick=%t\n", workload, o.seed, o.seconds, o.trace, o.quick)
	fmt.Fprintf(w, "env: %s %s/%s GOMAXPROCS=%d nproc=%d kernel_tier=%s commit=%s\n",
		goruntime.Version(), goruntime.GOOS, goruntime.GOARCH, goruntime.GOMAXPROCS(0), goruntime.NumCPU(),
		tensor.ActiveKernelTier(), gitCommit(root))
}

// parseSeed maps any seed argument to 64 bits: a decimal number is
// itself (a negative one wraps), anything else is hashed. The inputs are
// a function of the seed; no spelling of one is a reason to refuse a run.
func parseSeed(s string) uint64 {
	if v, err := strconv.ParseUint(s, 10, 64); err == nil {
		return v
	}
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return uint64(v)
	}
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func main() {
	workload := flag.String("workload", "", "run this one workload in this process (default: all five, each in a child process)")
	seed := flag.String("seed", "1", "seed the workload inputs derive from")
	seconds := flag.Float64("seconds", 0, "length of the timed region (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = end-to-end metrics")
	quick := flag.Bool("quick", false, "smoke run: two jobs per workload, correctness gate still on")
	selfcheck := flag.Bool("selfcheck", false, "run the full untraced set twice over -runs seeds and compare medians and spreads to the bounds")
	runs := flag.Int("runs", 10, "runs per workload and set under -selfcheck")
	flag.Parse()

	if err := run(*workload, options{seed: parseSeed(*seed), seconds: *seconds, trace: *trace != 0, quick: *quick}, *selfcheck, *runs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, o options, selfcheck bool, runs int) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	man, err := loadManifest(root)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(man.RunSeconds)
	}
	switch {
	case selfcheck:
		return selfCheck(root, man, o, runs)
	case workload == "":
		return runAll(root, man, o)
	}

	for _, def := range workloadDefs {
		if def.name != workload {
			continue
		}
		env := setupEnv{seed: o.seed, root: root, outDir: filepath.Join(root, man.Paths[0], "out")}
		if err := os.MkdirAll(env.outDir, 0o755); err != nil {
			return err
		}
		printStamp(os.Stdout, root, workload, o)
		rep, err := runWorkload(def, o, man, env, os.Stdout)
		if err != nil {
			return err
		}
		line, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !rep.Correct {
			return fmt.Errorf("%s: %d of %d jobs failed", workload, rep.Failed, rep.Attempted)
		}
		return nil
	}
	var names []string
	for _, def := range workloadDefs {
		names = append(names, def.name)
	}
	return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(names, ", "))
}
