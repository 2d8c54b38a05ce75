// Command ptgdump inspects the Parameterized Task Graph of one variant of
// the ported icsd_t2_7 subroutine: it prints the task classes with their
// instance counts (the symbolic PTG of Figs 1-2 made concrete), the
// inspection-phase workload statistics, and optionally exports the fully
// instantiated DAG in Graphviz DOT format for a small problem.
//
// The -variant flag accepts either a paper name (v1..v5) or a flat
// recipe in the transformation-pass grammar, so a derived shape — say
// one found by ccsim tune — can be dumped and diffed like any named
// variant:
//
//	ptgdump -variant seg=1,tree=4,fission=sorts -dot tuned.dot
//
// Usage:
//
//	ptgdump [-variant v5|recipe] [-preset water] [-nodes 4] [-dot out.dot]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"parsec/internal/ccsd"
	"parsec/internal/cluster"
	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/tce"
)

func main() {
	variant := flag.String("variant", "v5", "variant whose PTG to dump: v1..v5 or a flat recipe (seg=...,tree=...,fission=...,prio=...,span=...)")
	kernel := flag.String("kernel", "t2_7", "TCE kernel: t2_7 or t1_2")
	preset := flag.String("preset", "water", "molecule preset (keep small for -dot)")
	nodes := flag.Int("nodes", 4, "nodes for affinity/priority computation")
	dotPath := flag.String("dot", "", "write the instantiated DAG in DOT format to this file")
	analyze := flag.Bool("analyze", false, "print work/span analysis for every variant")
	flag.Parse()

	sys, err := molecule.Preset(*preset)
	if err != nil {
		fatal(err)
	}
	spec, err := ccsd.VariantByName(*variant)
	if err != nil {
		fatal(err)
	}
	k, err := tce.KernelByName(*kernel, sys)
	if err != nil {
		fatal(err)
	}
	w := tce.Inspect(k, nil)
	g := ccsd.BuildGraph(w, spec, ccsd.Options{Nodes: *nodes})
	if err := g.Validate(); err != nil {
		fatal(err)
	}

	fmt.Printf("system:   %v\n", sys)
	fmt.Printf("workload: %v\n", w.Stats())
	fmt.Printf("variant:  %v\n", spec)
	fmt.Printf("shape:    %s\n\n", spec.MustShape().Canon())

	counts, total := g.CountTasks()
	fmt.Printf("%-10s %10s  flows\n", "class", "instances")
	for _, tc := range g.Classes() {
		flows := ""
		for i, f := range tc.Flows {
			if i > 0 {
				flows += ", "
			}
			flows += fmt.Sprintf("%s %s", f.Mode, f.Name)
		}
		fmt.Printf("%-10s %10d  %s\n", tc.Name, counts[tc.Name], flows)
	}
	fmt.Printf("%-10s %10d\n\n", "total", total)

	// Per-chain shape summary: how the chains map onto tasks.
	lens := map[int]int{}
	for _, c := range w.Chains {
		lens[len(c.Gemms)]++
	}
	keys := make([]int, 0, len(lens))
	for k := range lens {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	fmt.Println("chain length histogram (GEMMs per chain: count):")
	for _, k := range keys {
		fmt.Printf("  %3d: %d\n", k, lens[k])
	}

	if *analyze {
		fmt.Println("\nwork/span analysis (uncontended Cascade durations):")
		mcfg := cluster.CascadeLike()
		dur := func(in *ptg.Instance) int64 {
			if in.Class.Cost == nil {
				return 0
			}
			c := in.Class.Cost(in.Ref.Args)
			sec := float64(c.Flops)/(mcfg.CoreGFlops*1e9) +
				(float64(c.MemBytes)+mcfg.GemmMemTraffic*float64(c.GemmBytes))/mcfg.MemBWBytes
			return int64(sec * 1e9)
		}
		for _, vs := range ccsd.Variants() {
			vg := ccsd.BuildGraph(w, vs, ccsd.Options{Nodes: *nodes})
			a, err := ptg.Analyze(vg, dur)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  %-3s %v\n", vs.Name, a)
		}
	}

	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := ptg.ExportDOT(g, f); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s (%d task instances)\n", *dotPath, total)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptgdump:", err)
	os.Exit(1)
}
