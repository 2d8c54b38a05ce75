package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"parsec/internal/ccsd"
	"parsec/internal/tune"
)

// tuneReport is the serialized tune output: the search result plus the
// hand-derived variants' makespans on the same machine, so the report
// shows where the tuned recipe lands in the §V progression. Everything
// in it is deterministic for a fixed seed — no wall-clock fields — so
// the committed docs/tune.json regenerates bit-identically.
type tuneReport struct {
	tune.Result
	// BaselineNs maps each named variant to its simulated makespan under
	// the tuned configuration. The search never reads these; they are
	// computed afterwards for the report and the acceptance criterion.
	BaselineNs map[string]int64 `json:"baseline_ns"`
	// Criterion records the acceptance check: a tuner started from v1
	// with no knowledge of v2..v5 must end at or below v5's makespan.
	Criterion tuneCriterion `json:"criterion"`
}

// tuneCriterion is the pass/fail record of the rediscovery check.
type tuneCriterion struct {
	Name string `json:"name"`
	Pass bool   `json:"pass"`
	Note string `json:"note"`
}

// tuneCmd executes the recipe search from -start, prints the climb,
// checks the rediscovery criterion, and writes the JSON report. The
// output is stably formatted (indented, trailing newline) so
// regeneration under the same seed is byte-identical with the committed
// file. Like the fault sweep, -quick runs uracil: the variant ordering
// only shows with a real backlog.
func tuneCmd(fs *flag.FlagSet) func(io.Writer) error {
	var o options
	o.register(fs, defaults{preset: "betacarotene", quickPreset: "uracil", cores: "7", out: "docs/tune.json"},
		"preset", "nodes", "cores", "quick", "v", "out")
	budget := fs.Int("budget", 64, "simulator-evaluation budget")
	seed := fs.Int64("seed", 1833, "seed of the neighbor-order shuffle (fixed seed => bit-identical output)")
	start := fs.String("start", "v1", "recipe the climb starts from (name or flat grammar)")
	return func(out io.Writer) error {
		sys, err := o.resolve()
		if err != nil {
			return err
		}
		cores, err := o.oneCore()
		if err != nil {
			return err
		}
		if _, err := ccsd.VariantByName(*start); err != nil {
			return fmt.Errorf("bad -start: %w", err)
		}
		mcfg := o.machine()
		fmt.Fprintf(out, "recipe autotuning on %s, %d nodes x %d cores/node (simulated)\n", sys.Name, mcfg.Nodes, cores)
		fmt.Fprintf(out, "start %s, budget %d evaluations, seed %#x\n\n", *start, *budget, *seed)

		res, err := tune.Run(tune.Config{
			Sys:          sys,
			Cluster:      mcfg,
			CoresPerNode: cores,
			Start:        *start,
			Budget:       *budget,
			Seed:         *seed,
		})
		if err != nil {
			return err
		}

		if o.verbose {
			for _, e := range res.History {
				if e.Pruned {
					fmt.Fprintf(out, "  r%d  %-55s bound %8.2f ms  pruned\n", e.Round, e.Recipe, float64(e.BoundNs)/1e6)
					continue
				}
				fmt.Fprintf(out, "  r%d  %-55s bound %8.2f ms  makespan %8.2f ms\n",
					e.Round, e.Recipe, float64(e.BoundNs)/1e6, float64(e.MakespanNs)/1e6)
			}
			fmt.Fprintln(out)
		}

		report := tuneReport{Result: *res, BaselineNs: map[string]int64{}}
		fmt.Fprintln(out, "hand-derived variants on the same machine:")
		for _, vs := range ccsd.Variants() {
			r, err := ccsd.RunSim(sys, vs, mcfg, ccsd.SimRunConfig{CoresPerNode: cores})
			if err != nil {
				return err
			}
			report.BaselineNs[vs.Name] = int64(r.Makespan)
			fmt.Fprintf(out, "  %-3s %10.2f ms\n", vs.Name, float64(r.Makespan)/1e6)
		}

		tunedName := res.Best
		if res.BestName != "" {
			tunedName = fmt.Sprintf("%s (= %s)", res.Best, res.BestName)
		}
		fmt.Fprintf(out, "\ntuned:  %s\n", tunedName)
		fmt.Fprintf(out, "  start %10.2f ms  (%s)\n", float64(res.StartMakespanNs)/1e6, res.Start)
		fmt.Fprintf(out, "  best  %10.2f ms  after %d evals (%d pruned statically, %d rounds)\n",
			float64(res.BestMakespanNs)/1e6, res.Evals, res.Pruned, res.Rounds)

		v5 := report.BaselineNs["v5"]
		crit := tuneCriterion{
			Name: "tuner started from v1 rediscovers a recipe at least as fast as hand-derived v5",
			Pass: res.BestMakespanNs <= v5,
			Note: fmt.Sprintf("tuned %.2f ms vs v5 %.2f ms", float64(res.BestMakespanNs)/1e6, float64(v5)/1e6),
		}
		report.Criterion = crit
		status := "PASS"
		if !crit.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(out, "\ncriterion [%s]: %s — %s\n", status, crit.Name, crit.Note)

		if err := writeArtifact(out, o.out, func(w io.Writer) error {
			buf, err := json.MarshalIndent(&report, "", "  ")
			if err != nil {
				return err
			}
			_, err = w.Write(append(buf, '\n'))
			return err
		}); err != nil {
			return err
		}
		if !crit.Pass {
			return fmt.Errorf("tuning criterion failed: %s", crit.Note)
		}
		return nil
	}
}
