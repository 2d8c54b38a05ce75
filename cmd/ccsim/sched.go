package main

import (
	"flag"
	"fmt"
	"io"

	"parsec/internal/ccsd"
	"parsec/internal/metrics"
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
		tbl := &metrics.SchedTable{
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
					tbl.Add(metrics.SchedRow{
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
