package main

import (
	"flag"
	"fmt"
	"io"

	"parsec/internal/ccsd"
	"parsec/internal/obsv"
	"parsec/internal/trace"
)

// traceCmd regenerates the paper's execution traces (Figs 10-13): it
// runs one series — a variant of the ported subroutine or the original
// CGP code — on the simulated cluster with PaRSEC-style instrumentation
// enabled, renders the trace as an ASCII Gantt chart (one row per
// thread, grouped by node), and prints the summary statistics the paper
// reads off the traces: startup idle time (the v2 bubble of Fig 11) and
// communication/computation overlap (absent in the original, Figs
// 12/13). -svg, -csv and -chrome additionally write the trace in those
// formats; -from/-to zoom into a time window (Fig 13). Small node counts
// keep the chart legible.
func traceCmd(fs *flag.FlagSet) func(io.Writer) error {
	var o options
	o.register(fs, defaults{preset: "betacarotene", quickPreset: "benzene", variants: "v4", cores: "7"},
		"preset", "nodes", "variants", "cores", "quick")
	width := fs.Int("width", 160, "ASCII chart width in columns")
	svgPath := fs.String("svg", "", "also write an SVG rendering to this file")
	csvPath := fs.String("csv", "", "also write the raw events as CSV to this file")
	chromePath := fs.String("chrome", "", "also write a Chrome/Perfetto trace-event JSON to this file (chrome://tracing, ui.perfetto.dev)")
	from := fs.Float64("from", 0, "zoom: render only events after this many seconds (Fig 13)")
	to := fs.Float64("to", 0, "zoom: render only events before this many seconds (0 = end)")
	return func(out io.Writer) error {
		sys, err := o.resolve()
		if err != nil {
			return err
		}
		cores, err := o.oneCore()
		if err != nil {
			return err
		}
		if len(o.series) != 1 {
			return fmt.Errorf("trace renders one series; -variants %q names %d", o.variants, len(o.series))
		}
		name := o.series[0]

		tr := trace.New()
		res, err := ccsd.RunSimSeries(sys, name, o.machine(), ccsd.SimRunConfig{CoresPerNode: cores, Trace: tr})
		if err != nil {
			return err
		}
		makespan := res.Makespan.Seconds()
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("trace invalid: %w", err)
		}
		if *from > 0 || *to > 0 {
			end := *to
			if end <= 0 {
				end = makespan
			}
			full := tr.Len()
			tr = tr.Window(int64(*from*1e9), int64(end*1e9))
			fmt.Fprintf(out, "zoomed to [%.3fs, %.3fs]: %d of %d events\n", *from, end, tr.Len(), full)
		}

		fmt.Fprintf(out, "trace of %s on %s, %d nodes x %d cores/node: makespan %.3f s, %d events\n\n",
			name, sys.Name, o.nodes, cores, makespan, tr.Len())
		if err := tr.ASCIIGantt(out, *width); err != nil {
			return err
		}

		byNode, sk := tr.Spans()
		p := obsv.FromSpans(name, byNode, sk)
		p.SetRamp("GEMM", byNode, sk)
		busy := writeTraceSummary(out, p)

		// Communication classes: reads (PaRSEC) or GETs and ADDs (original).
		comm := map[string]bool{"READA": true, "READB": true, "WRITE": true}
		commTime, overlapped := tr.OverlapStats(comm)
		if commTime > 0 {
			fmt.Fprintf(out, "\ncommunication/computation overlap: %.1f%% of %.3f s of communication\n",
				100*float64(overlapped)/float64(commTime), float64(commTime)/1e9)
		}
		// Worker time spent blocked in communication: the visual signature of
		// Figs 12/13 — in the original code GET_HASH_BLOCK rectangles rival
		// the GEMMs, while PaRSEC workers only do short local gathers and the
		// comm thread moves the data off the critical path.
		var commBusy int64
		for _, c := range p.Classes {
			if comm[c.Class] {
				commBusy += c.Total
			}
		}
		if busy > 0 {
			fmt.Fprintf(out, "worker time blocked in communication: %.1f%% of all busy time\n",
				100*float64(commBusy)/float64(busy))
		}
		fmt.Fprintf(out, "startup idle (Fig 11 bubble): mean %.3f s = %.1f%% of the makespan\n",
			float64(p.Idle.MeanStartup)/1e9, 100*spanFrac(p.Idle.MeanStartup, p.Span))
		fmt.Fprintf(out, "time to first GEMM per thread: mean %.3f s, max %.3f s (%.1f%% / %.1f%% of makespan)\n",
			float64(p.Ramp.Mean)/1e9, float64(p.Ramp.Max)/1e9,
			100*float64(p.Ramp.Mean)/float64(p.Span), 100*float64(p.Ramp.Max)/float64(p.Span))

		for _, a := range []struct {
			path   string
			render func(io.Writer) error
		}{
			{*svgPath, func(w io.Writer) error { return tr.WriteSVG(w, 1400) }},
			{*csvPath, tr.WriteCSV},
			{*chromePath, tr.WriteChromeTrace},
		} {
			if err := writeArtifact(out, a.path, a.render); err != nil {
				return err
			}
		}
		return nil
	}
}

// writeTraceSummary prints what the paper reads off a trace, from its
// profile: the span, the thread (row) count, the idle fraction 1 -
// busy/(rows*span), the mean startup idle before each thread's first
// event (Fig 11's bubble) as a fraction of the span, and each class's
// count and busy time. It returns the total busy time.
func writeTraceSummary(out io.Writer, p *obsv.Profile) (busy int64) {
	for _, w := range p.Workers {
		busy += w.Busy
	}
	var idle float64
	if rows := len(p.Workers); rows > 0 && p.Span > 0 {
		idle = 1 - float64(busy)/(float64(rows)*float64(p.Span))
	}
	fmt.Fprintf(out, "\nspan=%.3fs threads=%d idle=%.1f%% startup-idle=%.1f%%\n",
		float64(p.Span)/1e9, len(p.Workers), 100*idle, 100*spanFrac(p.Idle.MeanStartup, p.Span))
	for _, c := range p.Classes {
		fmt.Fprintf(out, "  %-10s count=%-6d busy=%.3fs\n", c.Class, c.Count, float64(c.Total)/1e9)
	}
	return busy
}

// spanFrac is d as a fraction of a span, 0 for an empty span.
func spanFrac(d, span int64) float64 {
	if span <= 0 {
		return 0
	}
	return float64(d) / float64(span)
}
