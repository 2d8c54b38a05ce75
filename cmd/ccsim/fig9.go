package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/cluster"
	"parsec/internal/metrics"
	"parsec/internal/molecule"
	"parsec/internal/sim"
	"parsec/internal/tce"
	"parsec/internal/xform"
)

// simSeconds runs one series on the simulated cluster and returns its
// makespan in seconds.
func simSeconds(sys *molecule.System, name string, mcfg cluster.Config, rc ccsd.SimRunConfig) (float64, error) {
	res, err := ccsd.RunSimSeries(sys, name, mcfg, rc)
	return res.Makespan.Seconds(), err
}

// fig9Cmd regenerates the paper's Fig 9 experiment: the execution time
// of the icsd_t2_7 CCSD subroutine on a simulated 32-node cluster, for
// the original NWChem code and the five PaRSEC variants of §IV-A, across
// a sweep of cores per node. It prints the Fig 9 table and the derived
// §V claims (speedups, crossover, spread); -out writes the CSV series.
func fig9Cmd(fs *flag.FlagSet) func(io.Writer) error {
	var o options
	o.register(fs, defaults{preset: "betacarotene", quickPreset: "benzene", variants: allSeries, cores: "1,3,7,11,15"},
		"preset", "nodes", "variants", "cores", "quick", "v", "out")
	return func(out io.Writer) error {
		sys, err := o.resolve()
		if err != nil {
			return err
		}
		cores, err := parseInts("cores", o.cores)
		if err != nil {
			return err
		}
		mcfg := o.machine()
		fmt.Fprintf(out, "system: %v\n", sys)
		fmt.Fprintf(out, "workload: %v\n", tce.Inspect(tce.T2_7(sys), nil).Stats())
		fmt.Fprintf(out, "machine: %d nodes, %.0f GFlop/s/core (contention %.2f), NIC %.1f GB/s, GA service %.2f GB/s\n\n",
			mcfg.Nodes, mcfg.CoreGFlops, mcfg.GemmContention, mcfg.NICBWBytes/1e9, mcfg.GAServiceBW/1e9)

		fig := &metrics.Fig9{
			Title: fmt.Sprintf("Fig 9: CCSD icsd_t2_7() on %d nodes using %s (simulated seconds)", mcfg.Nodes, sys.Name),
			Cores: cores,
		}
		for _, name := range o.series {
			s := metrics.Series{Name: name, Times: map[int]float64{}}
			for _, c := range cores {
				t0 := time.Now()
				sec, err := simSeconds(sys, name, mcfg, ccsd.SimRunConfig{CoresPerNode: c})
				if err != nil {
					return fmt.Errorf("%s @%d cores: %w", name, c, err)
				}
				s.Times[c] = sec
				if o.verbose {
					fmt.Fprintf(out, "  %-9s %2d cores/node: %8.2f s  (wall %v)\n", name, c, sec, time.Since(t0).Round(time.Millisecond))
				}
			}
			fig.Add(s)
		}

		fmt.Fprintln(out)
		if err := fig.WriteTable(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if claims, err := metrics.DeriveClaims(fig, cores[len(cores)-1]); err == nil {
			fmt.Fprint(out, claims)
		}
		return writeArtifact(out, o.out, fig.WriteCSV)
	}
}

// sweepPoint is one configuration of an ablation sweep: a machine, and
// for a graph parameter the pass that sets it on every PTG series.
type sweepPoint struct {
	label string
	mcfg  cluster.Config
	pass  xform.Pass
}

// sweepNames lists the ablations sweepPoints implements.
var sweepNames = []string{"gaservice", "nic", "contention", "stride", "segheight"}

// sweepPoints returns the fixed range of the named ablation: one machine
// or graph parameter varied around the calibrated value.
func sweepPoints(name string, base cluster.Config) ([]sweepPoint, error) {
	var points []sweepPoint
	mk := func(label string, mutate func(*sweepPoint)) {
		pt := sweepPoint{label: label, mcfg: base}
		mutate(&pt)
		points = append(points, pt)
	}
	switch name {
	case "gaservice":
		for _, bw := range []float64{0.05e9, 0.1e9, 0.21e9, 0.5e9, 1e9} {
			bw := bw
			mk(fmt.Sprintf("%.2fGB/s", bw/1e9), func(pt *sweepPoint) { pt.mcfg.GAServiceBW = bw })
		}
	case "nic":
		for _, bw := range []float64{0.3e9, 0.6e9, 1.2e9, 2.4e9, 5e9} {
			bw := bw
			mk(fmt.Sprintf("%.1fGB/s", bw/1e9), func(pt *sweepPoint) { pt.mcfg.NICBWBytes = bw })
		}
	case "contention":
		for _, b := range []float64{0, 0.1, 0.286, 0.5, 1} {
			b := b
			mk(fmt.Sprintf("beta=%.3f", b), func(pt *sweepPoint) { pt.mcfg.GemmContention = b })
		}
	case "stride":
		for _, us := range []int{0, 10, 47, 100, 200} {
			us := us
			mk(fmt.Sprintf("%dus", us), func(pt *sweepPoint) {
				pt.mcfg.GAStrideLatency = sim.Time(us) * sim.Microsecond
			})
		}
	case "segheight":
		for _, h := range []int{1, 2, 4, 8} {
			h := h
			mk(fmt.Sprintf("h=%d", h), func(pt *sweepPoint) { pt.pass = xform.SplitChain{Height: h} })
		}
		mk("h=full", func(pt *sweepPoint) { pt.pass = xform.FuseChain{} })
	default:
		return nil, fmt.Errorf("unknown sweep -name %q (accepted: %s)", name, strings.Join(sweepNames, ", "))
	}
	return points, nil
}

// seconds runs one series at the sweep point. A point that varies the
// graph appends its pass to the series' recipe; the CGP baseline has no
// graph to vary and runs as it is.
func (pt sweepPoint) seconds(sys *molecule.System, name string, cores int) (float64, error) {
	rc := ccsd.SimRunConfig{CoresPerNode: cores}
	if pt.pass == nil || name == ccsd.BaselineName {
		return simSeconds(sys, name, pt.mcfg, rc)
	}
	spec, err := ccsd.VariantByName(name)
	if err == nil {
		spec, err = spec.Append(pt.pass)
	}
	if err != nil {
		return 0, err
	}
	res, err := ccsd.RunSim(sys, spec, pt.mcfg, rc)
	return res.Makespan.Seconds(), err
}

// sweepCmd runs the named ablation: every requested series re-run at
// each point of the parameter's range.
func sweepCmd(fs *flag.FlagSet) func(io.Writer) error {
	var o options
	o.register(fs, defaults{preset: "betacarotene", quickPreset: "benzene", variants: allSeries, cores: "7"},
		"preset", "nodes", "variants", "cores", "quick")
	name := fs.String("name", "", "the parameter to vary: "+strings.Join(sweepNames, ", "))
	return func(out io.Writer) error {
		sys, err := o.resolve()
		if err != nil {
			return err
		}
		cores, err := o.oneCore()
		if err != nil {
			return err
		}
		points, err := sweepPoints(*name, o.machine())
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "ablation sweep %q on %s, %d nodes x %d cores/node (simulated seconds)\n\n", *name, sys.Name, o.nodes, cores)
		header := fmt.Sprintf("%-12s", "point")
		for _, n := range o.series {
			header += fmt.Sprintf("%12s", n)
		}
		fmt.Fprintln(out, header)
		fmt.Fprintln(out, strings.Repeat("-", len(header)))
		for _, pt := range points {
			row := fmt.Sprintf("%-12s", pt.label)
			for _, n := range o.series {
				sec, err := pt.seconds(sys, n, cores)
				if err != nil {
					return fmt.Errorf("%s @%s: %w", n, pt.label, err)
				}
				row += fmt.Sprintf("%12.2f", sec)
			}
			fmt.Fprintln(out, row)
		}
		return nil
	}
}
