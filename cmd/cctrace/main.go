// Command cctrace regenerates the paper's execution traces (Figs 10-13):
// it runs one variant of the ported subroutine — or the original CGP
// code — on the simulated cluster with PaRSEC-style instrumentation
// enabled, renders the trace as an ASCII Gantt chart (one row per thread,
// grouped by node), and prints the summary statistics the paper reads off
// the traces: startup idle time (the v2 bubble of Fig 11) and
// communication/computation overlap (absent in the original, Figs 12/13).
//
// Usage:
//
//	cctrace [-variant v4] [-preset benzene] [-nodes 8] [-cores 7]
//	        [-width 160] [-svg out.svg] [-csv out.csv] [-chrome out.json]
//	        [-pprof localhost:6060]
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"

	"parsec/internal/ccsd"
	"parsec/internal/cluster"
	"parsec/internal/molecule"
	"parsec/internal/trace"
)

func main() {
	variant := flag.String("variant", "v4", "what to trace: original, v1..v5, or a flat recipe (seg=...,fission=...)")
	preset := flag.String("preset", "benzene", "molecule preset: water, benzene, betacarotene")
	nodes := flag.Int("nodes", 8, "number of nodes (small keeps the chart legible)")
	cores := flag.Int("cores", 7, "cores (ranks) per node, as in Figs 10-12")
	width := flag.Int("width", 160, "ASCII chart width in columns")
	svgPath := flag.String("svg", "", "also write an SVG rendering to this file")
	csvPath := flag.String("csv", "", "also write the raw events as CSV to this file")
	chromePath := flag.String("chrome", "", "also write a Chrome/Perfetto trace-event JSON to this file")
	from := flag.Float64("from", 0, "zoom: render only events after this many seconds (Fig 13)")
	to := flag.Float64("to", 0, "zoom: render only events before this many seconds (0 = end)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the simulation runs")
	flag.Parse()

	if *pprofAddr != "" {
		// The DES replay is CPU-bound host code; pprof profiles the
		// simulator itself, not the simulated machine.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "cctrace: pprof:", err)
			}
		}()
		fmt.Printf("pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}

	sys, err := molecule.Preset(*preset)
	if err != nil {
		fatal(err)
	}
	mcfg := cluster.CascadeLike()
	mcfg.Nodes = *nodes

	tr := trace.New()
	res, err := ccsd.RunSimSeries(sys, *variant, mcfg, ccsd.SimRunConfig{CoresPerNode: *cores, Trace: tr})
	if err != nil {
		fatal(err)
	}
	makespan := res.Makespan.Seconds()
	if err := tr.Validate(); err != nil {
		fatal(fmt.Errorf("trace invalid: %w", err))
	}
	full := tr
	if *from > 0 || *to > 0 {
		end := *to
		if end <= 0 {
			end = makespan
		}
		tr = tr.Window(int64(*from*1e9), int64(end*1e9))
		fmt.Printf("zoomed to [%.3fs, %.3fs]: %d of %d events\n", *from, end, tr.Len(), full.Len())
	}

	fmt.Printf("trace of %s on %s, %d nodes x %d cores/node: makespan %.3f s, %d events\n\n",
		*variant, sys.Name, *nodes, *cores, makespan, tr.Len())
	if err := tr.ASCIIGantt(os.Stdout, *width); err != nil {
		fatal(err)
	}

	s := tr.Summarize()
	fmt.Printf("\n%s", s)

	// Communication classes: reads (PaRSEC) or GETs and ADDs (original).
	comm := map[string]bool{"READA": true, "READB": true, "WRITE": true}
	commTime, overlapped := tr.OverlapStats(comm)
	if commTime > 0 {
		fmt.Printf("\ncommunication/computation overlap: %.1f%% of %.3f s of communication\n",
			100*float64(overlapped)/float64(commTime), float64(commTime)/1e9)
	}
	// Worker time spent blocked in communication: the visual signature of
	// Figs 12/13 — in the original code GET_HASH_BLOCK rectangles rival
	// the GEMMs, while PaRSEC workers only do short local gathers and the
	// comm thread moves the data off the critical path.
	var commBusy int64
	for _, c := range s.ByClass {
		if comm[c.Class] {
			commBusy += c.Busy
		}
	}
	if s.TotalBusy > 0 {
		fmt.Printf("worker time blocked in communication: %.1f%% of all busy time\n",
			100*float64(commBusy)/float64(s.TotalBusy))
	}
	fmt.Printf("startup idle (Fig 11 bubble): mean %.3f s = %.1f%% of the makespan\n",
		float64(s.StartupIdleMean)/1e9, 100*s.StartupIdleFrac)
	gm, gx := tr.RampStats("GEMM")
	fmt.Printf("time to first GEMM per thread: mean %.3f s, max %.3f s (%.1f%% / %.1f%% of makespan)\n",
		float64(gm)/1e9, float64(gx)/1e9,
		100*float64(gm)/float64(s.Span), 100*float64(gx)/float64(s.Span))

	if *svgPath != "" {
		writeFile(*svgPath, func(f *os.File) error { return tr.WriteSVG(f, 1400) })
		fmt.Printf("wrote %s\n", *svgPath)
	}
	if *csvPath != "" {
		writeFile(*csvPath, func(f *os.File) error { return tr.WriteCSV(f) })
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if *chromePath != "" {
		writeFile(*chromePath, func(f *os.File) error { return tr.WriteChromeTrace(f) })
		fmt.Printf("wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", *chromePath)
	}
}

func writeFile(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cctrace:", err)
	os.Exit(1)
}
