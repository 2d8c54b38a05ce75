// Command ccsim is the experiment driver of the reproduction. Each
// experiment is a subcommand with its own flags:
//
//	ccsim fig9      the paper's Fig 9: original + v1..v5 across cores/node (simulated)
//	ccsim sweep     one machine or graph parameter varied, every series re-run (simulated)
//	ccsim sched     real runs across ready-queue modes x worker counts, scheduler counters
//	ccsim kernels   dense-kernel benchmark over real workload tile shapes
//	ccsim profile   observability profiles: histograms, idle bubbles, comm, critical path
//	ccsim faults    seeded fault-injection sweep with the recovery and energy criteria
//	ccsim real-dist real arithmetic across worker OS processes over loopback sockets
//	ccsim tune      simulator-guided recipe search, checked against hand-derived v5
//	ccsim trace     Figs 10-13: one series traced on the simulated cluster, ASCII/SVG/CSV/Perfetto
//
// The subcommands share one option set — -preset -nodes -variants -cores
// -quick -v -out — of which each registers the options it reads;
// `ccsim <subcommand> -h` lists them with their defaults. -quick shrinks
// the defaults to a smoke-sized run and never overrides an option given
// explicitly.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"parsec/internal/ccsd"
	"parsec/internal/cluster"
	"parsec/internal/molecule"
	"parsec/internal/netrun"
)

func main() {
	// A process launched by real-dist runs one worker rank and exits
	// here; everything below is the launcher side.
	netrun.MaybeWorkerMain()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ccsim:", err)
		os.Exit(1)
	}
}

// subcommand is one experiment. setup registers its flags on fs and
// returns the function that runs it with the parsed values; keeping the
// two apart lets tests parse a documented command line without
// executing it.
type subcommand struct {
	name, summary string
	setup         func(fs *flag.FlagSet) func(out io.Writer) error
}

var subcommands = []subcommand{
	{"fig9", "Fig 9 table, CSV series and the derived §V claims (simulated)", fig9Cmd},
	{"sweep", "ablation: one parameter varied, every series re-run (simulated)", sweepCmd},
	{"sched", "real runs across queue modes x worker counts; scheduler counters", schedCmd},
	{"kernels", "dense-kernel benchmark over real tile shapes; regression diff", kernelsCmd},
	{"profile", "observability profiles of simulated runs plus one real run", profileCmd},
	{"faults", "seeded fault-injection sweep; recovery and energy criteria", faultsCmd},
	{"real-dist", "real arithmetic across worker OS processes over loopback sockets", realDistCmd},
	{"tune", "simulator-guided recipe search, checked against hand-derived v5", tuneCmd},
	{"trace", "Figs 10-13: one series traced on the simulated cluster; Gantt chart, SVG/CSV/Perfetto", traceCmd},
}

// run parses args as `<subcommand> [flags]` and executes it, printing to
// out. A missing or unknown subcommand prints the usage and is an error.
func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		usage(out)
		return errors.New("missing subcommand")
	}
	for _, c := range subcommands {
		if c.name != args[0] {
			continue
		}
		fs := flag.NewFlagSet("ccsim "+c.name, flag.ContinueOnError)
		fs.SetOutput(out)
		exec := c.setup(fs)
		if err := fs.Parse(args[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return nil
			}
			return err
		}
		if fs.NArg() > 0 {
			return fmt.Errorf("%s: unexpected argument %q", c.name, fs.Arg(0))
		}
		return exec(out)
	}
	usage(out)
	if h := args[0]; h == "help" || h == "-h" || h == "-help" || h == "--help" {
		return nil
	}
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func usage(out io.Writer) {
	fmt.Fprintln(out, "usage: ccsim <subcommand> [flags]")
	fmt.Fprintln(out)
	for _, c := range subcommands {
		fmt.Fprintf(out, "  %-10s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(out, "\n`ccsim <subcommand> -h` lists a subcommand's flags.")
}

// allSeries is the full Fig 9 series list: the CGP baseline and the
// five PTG variants.
const allSeries = "original,v1,v2,v3,v4,v5"

// options is the option set the subcommands share. An empty preset,
// zero nodes or empty out mean "not given": resolve fills them from the
// subcommand's defaults, which is what lets -quick change defaults
// without overriding explicit values.
type options struct {
	preset, variants, cores, out string
	nodes                        int
	quick, verbose               bool
	d                            defaults

	// Set by resolve from -variants: every requested series by name, and
	// the PTG ones among them resolved.
	series []string
	ptg    []ptgSeries
}

// defaults are one subcommand's values for the shared options it reads.
type defaults struct {
	preset      string // system of the full-size run
	quickPreset string // system under -quick
	variants    string
	cores       string
	out         string // artifact path of the full-size run; -quick writes none
}

// Full-size and -quick machine sizes (paper: 32 nodes).
const (
	fullNodes  = 32
	quickNodes = 8
)

// register adds the named shared options to fs.
func (o *options) register(fs *flag.FlagSet, d defaults, names ...string) {
	o.d = d
	for _, n := range names {
		switch n {
		case "preset":
			fs.StringVar(&o.preset, n, "", fmt.Sprintf("molecule preset: %s (default %s; %s under -quick)",
				strings.Join(molecule.PresetNames(), ", "), d.preset, d.quickPreset))
		case "nodes":
			fs.IntVar(&o.nodes, n, 0, fmt.Sprintf("number of simulated nodes (default %d; %d under -quick)", fullNodes, quickNodes))
		case "variants":
			fs.StringVar(&o.variants, n, d.variants, "comma-separated series: original, v1..v5, or flat recipes (seg=1,tree=3;...)")
		case "cores":
			fs.StringVar(&o.cores, n, d.cores, "cores (ranks) per node")
		case "quick":
			fs.BoolVar(&o.quick, n, false, "shrink the defaults to a smoke-sized run")
		case "v":
			fs.BoolVar(&o.verbose, n, false, "print per-run progress")
		case "out":
			help := "write the result to this file"
			if d.out != "" {
				help += fmt.Sprintf(" (default %s; none under -quick)", d.out)
			}
			fs.StringVar(&o.out, n, "", help)
		default:
			panic("ccsim: no shared option " + n)
		}
	}
}

// resolve fills the options not given from the subcommand's defaults,
// rejects unknown presets and malformed variant lists up front — so a
// typo fails with the accepted values listed instead of deep inside a
// run — and returns the preset's system (nil for a subcommand without
// one).
func (o *options) resolve() (*molecule.System, error) {
	if o.preset == "" {
		o.preset = o.d.preset
		if o.quick {
			o.preset = o.d.quickPreset
		}
	}
	if o.nodes == 0 {
		o.nodes = fullNodes
		if o.quick {
			o.nodes = quickNodes
		}
	}
	if o.nodes < 1 {
		return nil, fmt.Errorf("bad -nodes %d", o.nodes)
	}
	if o.out == "" && !o.quick {
		o.out = o.d.out
	}
	o.series = splitSeries(o.variants)
	for _, name := range o.series {
		// The CGP baseline is a simulator series with no PTG to
		// schedule, distribute or perturb: the real-runtime subcommands
		// range over o.ptg and so leave it out.
		if name == ccsd.BaselineName {
			continue
		}
		spec, err := ccsd.VariantByName(name)
		if err != nil {
			return nil, fmt.Errorf("bad -variants entry %q in %q: %w", name, o.variants, err)
		}
		o.ptg = append(o.ptg, ptgSeries{name, spec})
	}
	if o.preset == "" {
		return nil, nil
	}
	sys, err := molecule.Preset(o.preset)
	if err != nil {
		return nil, fmt.Errorf("bad -preset: %w", err)
	}
	return sys, nil
}

// machine returns the calibrated cluster at the requested size.
func (o *options) machine() cluster.Config {
	mcfg := cluster.CascadeLike()
	mcfg.Nodes = o.nodes
	return mcfg
}

// oneCore parses -cores for the subcommands that run at a single
// cores-per-node point.
func (o *options) oneCore() (int, error) {
	c, err := strconv.Atoi(strings.TrimSpace(o.cores))
	if err != nil || c < 1 {
		return 0, fmt.Errorf("bad -cores %q (want one positive integer)", o.cores)
	}
	return c, nil
}

// splitSeries parses a -variants list into series entries. Terms are
// comma-separated; consecutive key=value terms (the flat recipe
// grammar) merge into one recipe entry, so
//
//	-variants original,v5,seg=1,tree=3,fission=none
//
// is three series: original, v5, and the derived recipe. A ";" starts a
// new entry unconditionally, for lists of adjacent recipes that would
// otherwise merge ("seg=1;seg=2").
func splitSeries(list string) []string {
	if list == "" {
		return nil
	}
	var out []string
	for _, group := range strings.Split(list, ";") {
		inRecipe := false
		for _, term := range strings.Split(group, ",") {
			term = strings.TrimSpace(term)
			if inRecipe && strings.Contains(term, "=") {
				out[len(out)-1] += "," + term
				continue
			}
			out = append(out, term)
			inRecipe = strings.Contains(term, "=")
		}
	}
	return out
}

// ptgSeries is one requested PTG series: its name as typed — what a
// table row or a job sent to another process carries — and the spec it
// resolves to.
type ptgSeries struct {
	name string
	spec ccsd.VariantSpec
}

func parseInts(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -%s list %q: %w", flagName, s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// writeArtifact renders into memory and then writes path in one call,
// creating its directory: a render error leaves the previous file
// untouched, and a write error is reported instead of lost in a
// deferred Close. An empty path writes nothing.
func writeArtifact(out io.Writer, path string, render func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		return fmt.Errorf("render %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nwrote %s\n", path)
	return nil
}
