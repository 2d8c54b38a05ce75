package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/fault"
	"parsec/internal/metrics"
	"parsec/internal/molecule"
	"parsec/internal/obsv"
	"parsec/internal/ptg"
	"parsec/internal/sched"
	"parsec/internal/sim"
	"parsec/internal/simexec"
	"parsec/internal/tce"
)

// faultSeed fixes every injector in the sweep so the committed
// docs/faults.json regenerates bit-identically.
const faultSeed = 1833

// faultScenario is one perturbation of the seeded sweep.
type faultScenario struct {
	name string
	desc string
	cfg  *fault.Config // nil = fault-free
	// interNode enables the straggler-recovery re-dispatch path.
	interNode bool
	// commFaults marks transfer-level faults, which only exist on the PTG
	// executors' comm threads — the CGP baseline's one-sided GETs/ACCs
	// have no retry path to exercise, so it skips those scenarios.
	commFaults bool
}

// faultScenarios is the fixed scenario list: a clean reference, the
// acceptance-criterion straggler with and without re-dispatch, lossy
// transfers under retry, and GA service stalls.
func faultScenarios() []faultScenario {
	straggle := func() *fault.Config {
		return &fault.Config{Seed: faultSeed, Stragglers: []fault.Straggler{{Node: 0, Factor: 4}}}
	}
	return []faultScenario{
		{name: "fault-free", desc: "no injected faults"},
		{name: "straggler-pinned", desc: "node 0 computes 4x slower; tasks stay pinned to their affinity node",
			cfg: straggle()},
		{name: "straggler-redispatch", desc: "same straggler; idle nodes re-dispatch its queued tasks (moving their GETs)",
			cfg: straggle(), interNode: true},
		{name: "loss-retry", desc: "transfer drops and latency spikes absorbed by the comm threads' retry/backoff",
			cfg: &fault.Config{Seed: faultSeed, DropProb: 0.02, AckDropProb: 0.01,
				SpikeProb: 0.05, SpikeLatency: 200 * sim.Microsecond},
			commFaults: true},
		{name: "ga-hiccups", desc: "NXTVAL and ACC service stalls",
			cfg: &fault.Config{Seed: faultSeed, NxtValProb: 0.05, NxtValDelay: 300 * sim.Microsecond,
				AccProb: 0.02, AccDelay: 200 * sim.Microsecond}},
	}
}

// faultRow is one (scenario, series) cell of the JSON baseline.
type faultRow struct {
	Scenario      string  `json:"scenario"`
	Series        string  `json:"series"`
	Seconds       float64 `json:"seconds"`
	LossSeconds   float64 `json:"loss_seconds"`
	Retries       int     `json:"retries,omitempty"`
	Drops         int     `json:"drops,omitempty"`
	AckDrops      int     `json:"ack_drops,omitempty"`
	DupSuppressed int     `json:"dup_suppressed,omitempty"`
	BackoffSec    float64 `json:"backoff_seconds,omitempty"`
	RetransmitB   int64   `json:"retransmit_bytes,omitempty"`
	Redispatches  int     `json:"redispatches,omitempty"`
	RedispatchB   int64   `json:"redispatch_bytes,omitempty"`
	StragglerSec  float64 `json:"straggler_excess_seconds,omitempty"`
}

// faultCriterion records the tentpole's recovery claim: with the seeded
// 4x single-node straggler, the re-dispatching v4 run must lose less
// than half the span the pinned run loses against fault-free.
type faultCriterion struct {
	Series        string  `json:"series"`
	PinnedLossSec float64 `json:"pinned_loss_seconds"`
	StolenLossSec float64 `json:"redispatch_loss_seconds"`
	RecoveredFrac float64 `json:"recovered_frac"`
	Pass          bool    `json:"pass"`
}

// faultEnergy records the real-runtime reproduction check: perturbed
// schedules must still produce the reference energy to a relative
// ccsd.EnergyTol. MaxDrift is the absolute drift, for the record.
type faultEnergy struct {
	System    string  `json:"system"`
	Reference float64 `json:"reference"`
	MaxDrift  float64 `json:"max_drift"`
	Pass      bool    `json:"pass"`
}

// faultsDoc is the committed docs/faults.json schema.
type faultsDoc struct {
	System    string          `json:"system"`
	Nodes     int             `json:"nodes"`
	Cores     int             `json:"cores_per_node"`
	Seed      uint64          `json:"seed"`
	Quick     bool            `json:"quick,omitempty"`
	Rows      []faultRow      `json:"rows"`
	Criterion *faultCriterion `json:"criterion,omitempty"`
	Energy    *faultEnergy    `json:"energy,omitempty"`
}

// faultsCmd executes the seeded fault sweep for each requested series —
// by default the NXTVAL baseline against the no-priority and priority
// PTG executors, the recovery layer's Fig 9 companions — prints per-run
// recovery counters and slowdown attribution, verifies the re-dispatch
// criterion and the perturbed real-runtime energies, and writes the
// JSON baseline. Under -quick the system is uracil, not benzene:
// benzene at 8 nodes leaves the 7-core workers underfed — a straggler
// barely queues anything, so re-dispatch has nothing to recover and the
// criteria are meaningless — while uracil keeps the smoke run subsecond
// with a real backlog.
func faultsCmd(fs *flag.FlagSet) func(io.Writer) error {
	var o options
	o.register(fs, defaults{preset: "betacarotene", quickPreset: "uracil", variants: "original,v2,v4", cores: "7", out: "docs/faults.json"},
		"preset", "nodes", "variants", "cores", "quick", "v", "out")
	return func(out io.Writer) error {
		sys, err := o.resolve()
		if err != nil {
			return err
		}
		cores, err := o.oneCore()
		if err != nil {
			return err
		}
		return runFaults(out, &o, sys, cores)
	}
}

func runFaults(out io.Writer, o *options, sys *molecule.System, cores int) error {
	mcfg, names := o.machine(), o.series
	fmt.Fprintf(out, "fault-injection sweep on %s, %d nodes x %d cores/node, seed %d (simulated seconds)\n",
		sys.Name, mcfg.Nodes, cores, uint64(faultSeed))

	doc := &faultsDoc{System: sys.Name, Nodes: mcfg.Nodes, Cores: cores, Seed: faultSeed, Quick: o.quick}
	// makespan[scenario][series], for loss columns and the criterion.
	makespan := map[string]map[string]sim.Time{}
	var profiles []*obsv.Profile

	for _, sc := range faultScenarios() {
		makespan[sc.name] = map[string]sim.Time{}
		fmt.Fprintf(out, "\n-- %s: %s\n", sc.name, sc.desc)
		for _, name := range names {
			baseline := name == ccsd.BaselineName
			if baseline && (sc.commFaults || sc.interNode) {
				fmt.Fprintf(out, "  %-9s skipped (the CGP baseline has no comm threads to retry or re-dispatch)\n", name)
				continue
			}
			var inj *fault.Injector
			if sc.cfg != nil {
				inj = fault.New(*sc.cfg)
			}
			t0 := time.Now()
			res, err := ccsd.RunSimSeries(sys, name, mcfg, ccsd.SimRunConfig{
				CoresPerNode:   cores,
				Queues:         sched.PerWorkerSteal,
				Faults:         inj,
				InterNodeSteal: sc.interNode,
			})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", sc.name, name, err)
			}
			mk := res.Makespan
			makespan[sc.name][name] = mk
			row := faultRow{
				Scenario: sc.name, Series: name, Seconds: mk.Seconds(),
				Retries: res.Retries, Drops: res.Drops, AckDrops: res.AckDrops,
				DupSuppressed: res.DupSuppressed, BackoffSec: res.BackoffTime.Seconds(),
				RetransmitB:  res.RetransmitBytes,
				Redispatches: res.Redispatches, RedispatchB: res.RedispatchBytes,
			}
			base, haveBase := makespan["fault-free"][name]
			perturbed := haveBase && sc.cfg != nil
			if perturbed {
				row.LossSeconds = (mk - base).Seconds()
			}
			if inj != nil {
				row.StragglerSec = inj.Stats().TotalStragglerExcess().Seconds()
			}
			doc.Rows = append(doc.Rows, row)
			fmt.Fprintf(out, "  %-9s %8.2f s", name, row.Seconds)
			if perturbed {
				fmt.Fprintf(out, "  (%+.2f s vs fault-free)", row.LossSeconds)
			}
			if o.verbose {
				fmt.Fprintf(out, "  [wall %v]", time.Since(t0).Round(time.Millisecond))
			}
			fmt.Fprintln(out)

			// Perturbed PTG runs get the full recovery/slowdown report.
			if perturbed && !baseline {
				profiles = append(profiles, faultProfile(name, sc, res, inj, base))
			}
		}
	}

	for _, p := range profiles {
		fmt.Fprintln(out)
		if err := metrics.WriteProfile(out, p, 0); err != nil {
			return err
		}
	}

	var firstErr error
	if crit := checkFaultCriterion(makespan, names); crit != nil {
		doc.Criterion = crit
		verdict := "PASS"
		if !crit.Pass {
			verdict = "FAIL"
			firstErr = fmt.Errorf("recovery criterion failed: %s re-dispatch loss %.2fs vs pinned loss %.2fs (want < half)",
				crit.Series, crit.StolenLossSec, crit.PinnedLossSec)
		}
		fmt.Fprintf(out, "\ncriterion [%s]: %s under the 4x straggler loses %.2f s re-dispatching vs %.2f s pinned (recovered %.0f%%, want > 50%%)\n",
			verdict, crit.Series, crit.StolenLossSec, crit.PinnedLossSec, 100*crit.RecoveredFrac)
	}

	en, err := checkFaultEnergies(o.ptg, o.quick)
	if err != nil {
		return err
	}
	doc.Energy = en
	verdict := "PASS"
	if !en.Pass {
		verdict = "FAIL"
		if firstErr == nil {
			firstErr = fmt.Errorf("perturbed real-runtime energy drifted %g from the reference %g (relative bound %g)",
				en.MaxDrift, en.Reference, ccsd.EnergyTol)
		}
	}
	fmt.Fprintf(out, "criterion [%s]: perturbed real-runtime energies on %s drift %.1e from the reference (relative bound %g)\n",
		verdict, en.System, en.MaxDrift, ccsd.EnergyTol)

	if err := writeArtifact(out, o.out, func(w io.Writer) error {
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		_, err = w.Write(append(blob, '\n'))
		return err
	}); err != nil {
		return err
	}
	return firstErr
}

// faultProfile wraps one perturbed run's counters and the injector's
// ledger in an observability profile, so the report renders the fault
// recovery and slowdown-attribution sections.
func faultProfile(series string, sc faultScenario, res simexec.Result, inj *fault.Injector, base sim.Time) *obsv.Profile {
	p := &obsv.Profile{Name: fmt.Sprintf("%s under %s", series, sc.name), Span: int64(res.Makespan)}
	p.SetRecovery(obsv.Recovery{
		Retries: res.Retries, Drops: res.Drops, AckDrops: res.AckDrops,
		DupSuppressed: res.DupSuppressed, BackoffTime: int64(res.BackoffTime),
		RetransmitBytes: res.RetransmitBytes,
		Redispatches:    res.Redispatches, RedispatchBytes: res.RedispatchBytes,
	})
	var causes []obsv.SlowdownCause
	st := inj.Stats()
	for _, n := range st.StragglerNodes() {
		causes = append(causes, obsv.SlowdownCause{
			Cause: fmt.Sprintf("straggler n%d", n), Time: int64(st.StragglerExcess[n]),
		})
	}
	causes = append(causes,
		obsv.SlowdownCause{Cause: "latency spikes", Time: int64(st.SpikeTime)},
		obsv.SlowdownCause{Cause: "NXTVAL hiccups", Time: int64(st.NxtValTime)},
		obsv.SlowdownCause{Cause: "ACC hiccups", Time: int64(st.AccTime)},
		obsv.SlowdownCause{Cause: "retry backoff", Time: int64(res.BackoffTime)},
	)
	p.SetSlowdown(int64(base), causes)
	return p
}

// checkFaultCriterion evaluates the re-dispatch recovery claim on the
// priority variant (v4 when present, else the last PTG series run).
func checkFaultCriterion(makespan map[string]map[string]sim.Time, names []string) *faultCriterion {
	series := ""
	for _, name := range names {
		if name == ccsd.BaselineName {
			continue
		}
		series = name
		if name == "v4" {
			break
		}
	}
	if series == "" {
		return nil
	}
	base, ok1 := makespan["fault-free"][series]
	pinned, ok2 := makespan["straggler-pinned"][series]
	stolen, ok3 := makespan["straggler-redispatch"][series]
	if !ok1 || !ok2 || !ok3 || pinned <= base {
		return nil
	}
	c := &faultCriterion{
		Series:        series,
		PinnedLossSec: (pinned - base).Seconds(),
		StolenLossSec: (stolen - base).Seconds(),
	}
	c.RecoveredFrac = 1 - c.StolenLossSec/c.PinnedLossSec
	c.Pass = 2*(stolen-base) < (pinned - base)
	return c
}

// checkFaultEnergies reruns the PTG series on the real goroutine runtime
// with a straggling worker (the TaskDelay hook) and per-worker stealing,
// verifying the recovered schedules still reproduce the serial reference
// energy. The small system keeps real arithmetic fast — the check is
// about determinism under recovery, not scale.
func checkFaultEnergies(variants []ptgSeries, quick bool) (*faultEnergy, error) {
	realSys, err := molecule.Preset("water")
	if err != nil {
		return nil, err
	}
	w := tce.Inspect(tce.T2_7(realSys), nil)
	ref := ccsd.ReferenceEnergy(w)
	en := &faultEnergy{System: realSys.Name, Reference: ref, Pass: true}
	cfg := ccsd.ExecConfig{
		Workers: 4,
		Queue:   sched.PerWorkerSteal,
		TaskDelay: func(worker int, _ ptg.TaskRef) time.Duration {
			if worker == 0 {
				return 100 * time.Microsecond // the straggler
			}
			return 0
		},
	}
	if quick {
		cfg.Workers = 2
	}
	for _, v := range variants {
		res, err := ccsd.CompileWorkload(w, v.spec, ccsd.Options{Nodes: 1}).Execute(cfg)
		if err != nil {
			return nil, fmt.Errorf("perturbed real run %s: %w", v.name, err)
		}
		en.MaxDrift = math.Max(en.MaxDrift, math.Abs(res.Energy-ref))
		if ccsd.EnergyRelDiff(res.Energy, ref) > ccsd.EnergyTol {
			en.Pass = false
		}
	}
	return en, nil
}
