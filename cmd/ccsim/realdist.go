package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/netrun"
	"parsec/internal/obsv"
	"parsec/internal/tce"
)

// realDistCmd executes the requested variants with real arithmetic
// across -ranks OS processes over loopback sockets — the coordinator and
// the Global Arrays server stay in this process, each worker process is
// one rank re-executing this binary (see netrun.MaybeWorkerMain in
// main). Distributing a run may move work, never the energy: each
// variant's distributed energy is checked against the single-process
// runtime to a relative ccsd.EnergyTol, and its wire counters feed the
// same observability report the simulator and the shared-memory runtime
// print. Real arithmetic at beta-carotene scale is out of reach for a
// smoke-sized distributed run; benzene is the acceptance system.
func realDistCmd(fs *flag.FlagSet) func(io.Writer) error {
	var o options
	o.register(fs, defaults{preset: "benzene", quickPreset: "water", variants: "v2,v5"}, "preset", "variants", "quick", "v")
	ranks := fs.Int("ranks", 3, "worker OS processes")
	workers := fs.Int("workers", 2, "worker goroutines per rank process")
	return func(out io.Writer) error {
		sys, err := o.resolve()
		if err != nil {
			return err
		}
		w := tce.Inspect(tce.T2_7(sys), nil)
		fmt.Fprintf(out, "real distributed run: %s across %d worker processes x %d workers each (+ GA coordinator)\n",
			sys, *ranks, *workers)
		fmt.Fprintf(out, "%-8s %20s %12s %10s %8s %10s %10s %9s\n",
			"variant", "energy", "rel.d-single", "elapsed", "tasks", "activ.B", "acc.B", "takeover")

		for _, v := range o.ptg {
			if o.verbose {
				fmt.Fprintf(os.Stderr, "# %s: single-process reference...\n", v.name)
			}
			ref, err := ccsd.CompileWorkload(w, v.spec, ccsd.Options{Nodes: 1}).Execute(ccsd.ExecConfig{Workers: *workers})
			if err != nil {
				return fmt.Errorf("%s reference: %w", v.name, err)
			}
			job := netrun.JobSpec{Preset: o.preset, Variant: v.name}
			if o.verbose {
				fmt.Fprintf(os.Stderr, "# %s: launching %d processes...\n", v.name, *ranks)
			}
			l, err := netrun.StartProcesses(netrun.Config{
				Ranks:    *ranks,
				Workers:  *workers,
				Policy:   v.spec.Policy(),
				Deadline: 10 * time.Minute,
			}, job)
			if err != nil {
				return fmt.Errorf("%s: %w", v.name, err)
			}
			res, err := l.Wait()
			if err != nil {
				return fmt.Errorf("%s: %w", v.name, err)
			}
			diff := ccsd.EnergyRelDiff(res.Energy, ref.Energy)
			fmt.Fprintf(out, "%-8s %20.12f %12.3e %10s %8d %10d %10d %9d\n",
				v.name, res.Energy, diff, res.Elapsed.Round(time.Millisecond),
				res.Tasks, res.Comm.TotalBytes, res.Comm.AccBytes, res.Takeovers)
			if diff > ccsd.EnergyTol {
				return fmt.Errorf("%s: distributed energy %.15f deviates from single-process %.15f by a relative %.3e (> %g)",
					v.name, res.Energy, ref.Energy, diff, ccsd.EnergyTol)
			}
			if o.verbose {
				fmt.Fprintln(out)
				prof := res.Profile(fmt.Sprintf("%s %s x%d-proc", o.preset, v.name, *ranks))
				if err := obsv.WriteProfile(out, prof, maxWorkerRows); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(out, "ok: every distributed energy matches its single-process run to a relative %g\n", ccsd.EnergyTol)
		return nil
	}
}
