package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"parsec/internal/ccsd"
	"parsec/internal/sched"
	"parsec/internal/tce"
)

// schedCmd executes the requested variants on the shared-memory
// goroutine runtime with real arithmetic, across every ready-queue mode
// and worker count, and prints the scheduler counters (steals, parks,
// wakes, queue depth, load imbalance) — the intra-node §IV-D behavior
// the distributed simulation abstracts away. Real arithmetic at
// beta-carotene scale takes minutes per cell, so the default system is
// already the smoke-sized one.
func schedCmd(fs *flag.FlagSet) func(io.Writer) error {
	var o options
	o.register(fs, defaults{preset: "water", quickPreset: "water", variants: allSeries}, "preset", "variants", "quick")
	workers := fs.String("workers", "1,2,4,8", "comma-separated worker counts")
	return func(out io.Writer) error {
		sys, err := o.resolve()
		if err != nil {
			return err
		}
		workerCounts, err := parseInts("workers", *workers)
		if err != nil {
			return err
		}
		w := tce.Inspect(tce.T2_7(sys), nil)
		fmt.Fprintf(out, "system: %v\n", sys)
		fmt.Fprintf(out, "workload: %v\n", w.Stats())
		// The caveat travels with the numbers: this output is committed as a
		// docs artifact and read without the generating command at hand.
		fmt.Fprintln(out, `note: real execution; numbers vary with the host. steals is hits/attempts
("-": the mode never probes). imbalance is max/mean per-worker tasks — near 1
with real parallelism, approaching W when one worker monopolizes the run
(e.g. on a 1-vCPU container). DESIGN.md section 6 documents the scheduler.`)
		fmt.Fprintln(out)

		modes := []struct {
			name string
			q    sched.QueueMode
		}{
			{"shared", sched.SharedQueue},
			{"pinned", sched.PerWorker},
			{"pinned-steal", sched.PerWorkerSteal},
		}
		tbl := &SchedTable{
			Title: fmt.Sprintf("shared-memory scheduler sweep on %s (real execution, wall seconds)", sys.Name),
		}
		ref := ccsd.ReferenceEnergy(w)
		for _, v := range o.ptg {
			plan := ccsd.CompileWorkload(w, v.spec, ccsd.Options{Nodes: 1})
			for _, m := range modes {
				for _, n := range workerCounts {
					res, err := plan.Execute(ccsd.ExecConfig{Workers: n, Queue: m.q})
					if err != nil {
						return fmt.Errorf("%s/%s @%d workers: %w", v.name, m.name, n, err)
					}
					if d := ccsd.EnergyRelDiff(res.Energy, ref); d > ccsd.EnergyTol {
						return fmt.Errorf("%s/%s @%d workers: energy %.15g vs reference %.15g (relative %.1e > %g)",
							v.name, m.name, n, res.Energy, ref, d, ccsd.EnergyTol)
					}
					rep := res.Report
					tbl.Add(SchedRow{
						Config:         fmt.Sprintf("%s/%s", v.name, m.name),
						Workers:        rep.Workers,
						Tasks:          rep.Tasks,
						Seconds:        rep.Elapsed.Seconds(),
						StealAttempts:  rep.Sched.StealAttempts,
						Steals:         rep.Sched.Steals,
						Parks:          rep.Sched.Parks,
						Wakes:          rep.Sched.Wakes,
						MaxQueueDepth:  rep.Sched.MaxQueueDepth,
						PerWorkerTasks: rep.Sched.PerWorkerTasks,
					})
				}
			}
		}
		return tbl.WriteTable(out)
	}
}

// SchedRow is one shared-memory scheduler measurement: a (configuration,
// worker count) cell with the counters the sharded runtime reports
// (runtime.SchedStats).
type SchedRow struct {
	Config  string // e.g. "pinned-steal" or "v5/shared"
	Workers int
	Tasks   int
	Seconds float64

	StealAttempts int64
	Steals        int64
	Parks         int64
	Wakes         int64
	MaxQueueDepth int
	// PerWorkerTasks feeds the imbalance column; may be nil.
	PerWorkerTasks []int64
}

// Imbalance returns max/mean of the per-worker task counts: 1.0 is a
// perfectly even split, W means one worker did everything. Returns 0
// when per-worker counts are unavailable.
func (r SchedRow) Imbalance() float64 {
	if len(r.PerWorkerTasks) == 0 {
		return 0
	}
	var sum, max int64
	for _, n := range r.PerWorkerTasks {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(r.PerWorkerTasks))
	return float64(max) / mean
}

// SchedTable accumulates scheduler measurements across configurations,
// the shared-memory analogue of the Fig 9 sweep: instead of simulated
// execution time per cores/node it reports the intra-node scheduling
// behavior the paper discusses in §IV-C/§IV-D (priority queues, work
// stealing between the per-thread ready queues).
type SchedTable struct {
	Title string
	Rows  []SchedRow
}

// Add appends a row.
func (t *SchedTable) Add(r SchedRow) { t.Rows = append(t.Rows, r) }

// WriteTable renders the measurements as an aligned text table.
func (t *SchedTable) WriteTable(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	header := fmt.Sprintf("%-20s %7s %8s %9s %14s %7s %7s %8s %9s",
		"config", "workers", "tasks", "time-s", "steals", "parks", "wakes", "maxdepth", "imbalance")
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(header))); err != nil {
		return err
	}
	for _, r := range t.Rows {
		steals := "-"
		if r.StealAttempts > 0 {
			steals = fmt.Sprintf("%d/%d", r.Steals, r.StealAttempts)
		}
		imb := "-"
		if v := r.Imbalance(); v > 0 {
			imb = fmt.Sprintf("%.2f", v)
		}
		if _, err := fmt.Fprintf(w, "%-20s %7d %8d %9.3f %14s %7d %7d %8d %9s\n",
			r.Config, r.Workers, r.Tasks, r.Seconds, steals, r.Parks, r.Wakes, r.MaxQueueDepth, imb); err != nil {
			return err
		}
	}
	return nil
}
