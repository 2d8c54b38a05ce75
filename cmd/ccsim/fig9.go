package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/cluster"
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

		fig := &Fig9{
			Title: fmt.Sprintf("Fig 9: CCSD icsd_t2_7() on %d nodes using %s (simulated seconds)", mcfg.Nodes, sys.Name),
			Cores: cores,
		}
		for _, name := range o.series {
			s := Series{Name: name, Times: map[int]float64{}}
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
		if claims, err := DeriveClaims(fig, cores[len(cores)-1]); err == nil {
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

// Series is one curve of Fig 9: execution time (seconds) per cores/node.
type Series struct {
	Name  string
	Times map[int]float64 // cores/node -> seconds
}

// Best returns the minimum time and the cores/node achieving it.
func (s Series) Best() (cores int, seconds float64) {
	first := true
	for c, t := range s.Times {
		if first || t < seconds || (t == seconds && c < cores) {
			cores, seconds, first = c, t, false
		}
	}
	return cores, seconds
}

// At returns the time at the given cores/node, or NaN-like zero and false.
func (s Series) At(cores int) (float64, bool) {
	t, ok := s.Times[cores]
	return t, ok
}

// Fig9 holds the full experiment: all series over a common cores axis.
type Fig9 struct {
	Title  string
	Cores  []int
	Series []Series
}

// Add appends a series.
func (f *Fig9) Add(s Series) { f.Series = append(f.Series, s) }

// Get returns the named series.
func (f *Fig9) Get(name string) (Series, bool) {
	for _, s := range f.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// WriteTable renders the experiment as an aligned text table with one row
// per series and one column per cores/node.
func (f *Fig9) WriteTable(w io.Writer) error {
	cores := append([]int(nil), f.Cores...)
	sort.Ints(cores)
	if _, err := fmt.Fprintf(w, "%s\n", f.Title); err != nil {
		return err
	}
	header := fmt.Sprintf("%-16s", "variant")
	for _, c := range cores {
		header += fmt.Sprintf("%10s", fmt.Sprintf("%d c/n", c))
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(header))); err != nil {
		return err
	}
	for _, s := range f.Series {
		row := fmt.Sprintf("%-16s", s.Name)
		for _, c := range cores {
			if t, ok := s.Times[c]; ok {
				row += fmt.Sprintf("%10.2f", t)
			} else {
				row += fmt.Sprintf("%10s", "-")
			}
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the experiment as CSV (series per row).
func (f *Fig9) WriteCSV(w io.Writer) error {
	cores := append([]int(nil), f.Cores...)
	sort.Ints(cores)
	cols := make([]string, 0, len(cores)+1)
	cols = append(cols, "variant")
	for _, c := range cores {
		cols = append(cols, fmt.Sprintf("cores_%d", c))
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, s := range f.Series {
		row := []string{s.Name}
		for _, c := range cores {
			if t, ok := s.Times[c]; ok {
				row = append(row, fmt.Sprintf("%.4f", t))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Claims are the quantitative statements of §V derived from Fig 9.
type Claims struct {
	// OriginalSpeedup3 is the original code's speedup at 3 cores/node
	// over 1 core/node (paper: 2.35x).
	OriginalSpeedup3 float64
	// OriginalBestCores and OriginalBestSpeedup locate the original
	// code's best configuration (paper: 7 cores/node, 2.69x).
	OriginalBestCores   int
	OriginalBestSpeedup float64
	// BestVariant and BestOverOriginal compare the fastest PaRSEC variant
	// at max cores against the original's best run (paper: v5, 2.1x).
	BestVariant      string
	BestOverOriginal float64
	// SpreadAtMax is fastest/slowest PaRSEC variant at max cores
	// (paper: 1.73x).
	SpreadAtMax       float64
	SlowestVariantMax string
}

// DeriveClaims computes the §V claims from a Fig 9 result. The original
// series must be named "original"; variant series "v1".."v5". maxCores is
// the rightmost point of the sweep.
func DeriveClaims(f *Fig9, maxCores int) (Claims, error) {
	var c Claims
	orig, ok := f.Get("original")
	if !ok {
		return c, fmt.Errorf("no original series")
	}
	o1, ok1 := orig.At(1)
	o3, ok3 := orig.At(3)
	if ok1 && ok3 && o3 > 0 {
		c.OriginalSpeedup3 = o1 / o3
	}
	bc, bt := orig.Best()
	c.OriginalBestCores = bc
	if bt > 0 && ok1 {
		c.OriginalBestSpeedup = o1 / bt
	}
	bestT, worstT := 0.0, 0.0
	for _, s := range f.Series {
		if s.Name == "original" {
			continue
		}
		t, ok := s.At(maxCores)
		if !ok {
			continue
		}
		if c.BestVariant == "" || t < bestT {
			c.BestVariant, bestT = s.Name, t
		}
		if c.SlowestVariantMax == "" || t > worstT {
			c.SlowestVariantMax, worstT = s.Name, t
		}
	}
	if bestT > 0 {
		c.BestOverOriginal = bt / bestT
		c.SpreadAtMax = worstT / bestT
	}
	return c, nil
}

// String renders the claims side by side with the paper's numbers.
func (c Claims) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "original speedup @3 cores/node:      %.2fx (paper: 2.35x)\n", c.OriginalSpeedup3)
	fmt.Fprintf(&b, "original best: %d cores/node, speedup %.2fx (paper: 7 cores, 2.69x)\n",
		c.OriginalBestCores, c.OriginalBestSpeedup)
	fmt.Fprintf(&b, "best PaRSEC variant at max cores:    %s, %.2fx over original best (paper: v5, 2.1x)\n",
		c.BestVariant, c.BestOverOriginal)
	fmt.Fprintf(&b, "fastest/slowest PaRSEC spread:       %.2fx, slowest %s (paper: 1.73x, v1)\n",
		c.SpreadAtMax, c.SlowestVariantMax)
	return b.String()
}
