package main

import (
	"flag"
	"fmt"
	"io"

	"parsec/internal/ccsd"
	"parsec/internal/cluster"
	"parsec/internal/metrics"
	"parsec/internal/molecule"
	"parsec/internal/obsv"
	"parsec/internal/ptg"
	"parsec/internal/simexec"
	"parsec/internal/trace"
)

// maxWorkerRows bounds the per-worker idle section of each report; the
// aggregate idle line still covers every worker.
const maxWorkerRows = 8

// profileCmd executes the requested series under tracing — simulated on
// the cluster, plus one real shared-memory run of the last PTG variant —
// and prints a full observability report for each: per-class duration
// histograms, idle bubbles (the quantitative form of Fig 11),
// communication volumes, and critical-path attribution. The default
// series are the paper's Fig 11 pair — v2 vs v4, identical graphs
// without and with priorities, so the startup bubble shows up directly
// in the idle section — plus the original code for the Figs 12/13
// communication signature (GET/ACC volumes, no dataflow deliveries).
// The real run uses the -real system, kept small so real arithmetic
// stays fast even when the sims run at paper scale (there it needs tens
// of GB and ~an hour per core). -out additionally writes the profiles as
// JSON for regression diffing.
func profileCmd(fs *flag.FlagSet) func(io.Writer) error {
	var o options
	o.register(fs, defaults{preset: "water", quickPreset: "benzene", variants: "original,v2,v4", cores: "7"},
		"preset", "nodes", "variants", "cores", "quick", "out")
	workers := fs.Int("workers", 4, "worker goroutines of the real run")
	realPreset := fs.String("real", "benzene", "molecule preset of the real run")
	return func(out io.Writer) error {
		sys, err := o.resolve()
		if err != nil {
			return err
		}
		cores, err := o.oneCore()
		if err != nil {
			return err
		}
		realSys, err := molecule.Preset(*realPreset)
		if err != nil {
			return fmt.Errorf("bad -real: %w", err)
		}
		mcfg := o.machine()
		fmt.Fprintf(out, "system: %v\n", sys)
		fmt.Fprintf(out, "machine: %d nodes x %d cores/node (simulated); real run on %s with %d workers\n",
			mcfg.Nodes, cores, realSys.Name, *workers)

		var profiles []*obsv.Profile
		for _, name := range o.series {
			p, err := profileSim(sys, name, mcfg, cores)
			if err != nil {
				return fmt.Errorf("profile %s: %w", name, err)
			}
			profiles = append(profiles, p)
		}
		if n := len(o.ptg); n > 0 {
			p, err := profileReal(realSys, o.ptg[n-1].spec, *workers)
			if err != nil {
				return fmt.Errorf("profile real run: %w", err)
			}
			profiles = append(profiles, p)
		}

		for _, p := range profiles {
			fmt.Fprintln(out)
			if err := metrics.WriteProfile(out, p, maxWorkerRows); err != nil {
				return err
			}
		}
		return writeArtifact(out, o.out, func(w io.Writer) error { return obsv.WriteJSON(w, profiles) })
	}
}

// profileSim runs one series on the simulated cluster with tracing. A
// PTG variant's plan is compiled once: simulated, then its DAG replayed
// under the measured span durations for critical-path attribution. The
// CGP baseline has no PTG, so its profile carries histograms, idle gaps
// and GET/ACC volumes only — for the original code that tally IS the
// whole communication story (blocking GET_HASH_BLOCK before every GEMM,
// ADD_HASH_BLOCK per chain; no dataflow deliveries).
func profileSim(sys *molecule.System, name string, mcfg cluster.Config, cores int) (*obsv.Profile, error) {
	tr := trace.New()
	rc := ccsd.SimRunConfig{CoresPerNode: cores, Trace: tr}
	// profile wraps a finished run; unit is what the run's per-node
	// workers are — cores, or the baseline's MPI ranks.
	profile := func(res simexec.Result, unit string) *obsv.Profile {
		p := obsv.FromTrace(fmt.Sprintf("%s sim %s %dn x %d%s", name, sys.Name, mcfg.Nodes, cores, unit), tr)
		p.SetRamp("GEMM", tr)
		p.SetComm(obsv.CommStats{
			GetOps: res.Gets, GetBytes: res.GetBytes,
			AccOps: res.Adds, AccBytes: res.AddBytes,
			Transfers: int64(res.Transfers), TotalBytes: res.BytesSent,
			ByClass: res.BytesByClass,
		})
		return p
	}
	if name == ccsd.BaselineName {
		res, err := ccsd.RunSimSeries(sys, name, mcfg, rc)
		if err != nil {
			return nil, err
		}
		return profile(res, "r"), nil
	}
	spec, err := ccsd.VariantByName(name)
	if err != nil {
		return nil, err
	}
	plan := ccsd.Compile(sys, spec, ccsd.Options{Nodes: mcfg.Nodes})
	res, err := plan.Simulate(mcfg, rc)
	if err != nil {
		return nil, err
	}
	p := profile(res, "c")
	a, err := plan.Analyze(measuredDurations(tr))
	if err != nil {
		return nil, fmt.Errorf("critical-path replay: %w", err)
	}
	p.SetCritical(a)
	return p, nil
}

// profileReal runs one variant with real arithmetic on the goroutine
// runtime, profiling wall-clock spans instead of simulated time.
func profileReal(sys *molecule.System, spec ccsd.VariantSpec, workers int) (*obsv.Profile, error) {
	plan := ccsd.Compile(sys, spec, ccsd.Options{Nodes: 1})
	tr := trace.New()
	if _, err := plan.Execute(ccsd.ExecConfig{Workers: workers, Trace: tr}); err != nil {
		return nil, err
	}
	p := obsv.FromTrace(fmt.Sprintf("%s real %s, %d workers (wall time)", spec.Name, sys.Name, workers), tr)
	p.SetRamp("GEMM", tr)
	a, err := plan.Analyze(measuredDurations(tr))
	if err != nil {
		return nil, fmt.Errorf("critical-path replay: %w", err)
	}
	p.SetCritical(a)
	return p, nil
}

// measuredDurations indexes a PTG run's events by instance (Event.Seq)
// so a DAG replay can charge each instance its measured duration — its
// execution plus whatever migration or retry the executor recorded
// against it. Instances without an event charge zero.
func measuredDurations(tr *trace.Trace) func(*ptg.Instance) int64 {
	bySeq := make(map[int]int64)
	for _, e := range tr.Events() {
		bySeq[e.Seq] += e.Duration()
	}
	return func(in *ptg.Instance) int64 { return bySeq[in.Seq] }
}
