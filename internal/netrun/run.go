package netrun

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sync"

	"parsec/internal/ccsd"
	"parsec/internal/ga"
	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/sched"
)

// RunGraph executes a generic PTG across cfg.Ranks in-process ranks
// talking over real sockets: each rank is a goroutine with its own
// transport, tracker, and engine, exchanging the same frames worker
// processes would. build must return the identical graph on every rank
// (and once more, rank -1, for the coordinator's task count). Jobs run
// this way have no Global Arrays surface and no energy; it is the
// conformance suite's backend.
func RunGraph(cfg Config, build func(rank int) (*ptg.Graph, error)) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g, err := build(-1)
	if err != nil {
		return nil, err
	}
	_, total := g.CountTasks()
	co, err := startCoordinator(cfg, coordSpec{
		numInstances: total,
		graph:        func() *ptg.Graph { return g },
	})
	if err != nil {
		return nil, err
	}
	return runInProcess(cfg, co, func(rank int) error {
		return runWorker(cfg, rank, co.addr(), nil, func(r int, _ ga.API) (*ptg.Graph, error) {
			return build(r)
		})
	})
}

// Run executes a CCSD job across cfg.Ranks in-process ranks over real
// sockets, with the coordinator goroutine serving the Global Arrays: it
// compiles the job once and hands the plan to RunPlan. The returned
// energy must match a single-process Execute of the same job to a
// relative ccsd.EnergyTol — the distribution, the wire, and any injected
// faults may reshuffle who computes what, never what is computed.
func Run(cfg Config, spec JobSpec) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	plan, err := spec.plan(cfg.Ranks)
	if err != nil {
		return nil, err
	}
	return RunPlan(cfg, plan)
}

// RunPlan executes a compiled plan across cfg.Ranks in-process ranks.
// The plan is the same value Execute and the simulator consume, compiled
// for Nodes == cfg.Ranks: every rank binds its own graph over its own
// Global Arrays client against the plan's one shared skeleton, and the
// coordinator reads the task count and the energy functional off it, so
// the job is inspected and enumerated once however many ranks run it.
func RunPlan(cfg Config, plan *ccsd.CompiledPlan) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cspec, err := planCoordSpec(cfg, plan)
	if err != nil {
		return nil, err
	}
	co, err := startCoordinator(cfg, cspec)
	if err != nil {
		return nil, err
	}
	return runInProcess(cfg, co, func(rank int) error {
		return runWorker(cfg, rank, co.addr(), plan, planBuild(plan))
	})
}

// runInProcess drives one coordinator and cfg.Ranks worker goroutines
// to completion.
func runInProcess(cfg Config, co *coordinator, work func(rank int) error) (*Result, error) {
	var wg sync.WaitGroup
	errs := make([]error, cfg.Ranks)
	for r := 0; r < cfg.Ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = work(rank)
		}(r)
	}
	res, err := co.wait()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for r, werr := range errs {
		if werr != nil {
			return nil, fmt.Errorf("netrun: rank %d: %w", r, werr)
		}
	}
	return res, nil
}

// CustomSpec is the serializable form of a non-preset molecular system.
type CustomSpec = molecule.CustomSpec

// JobSpec names a CCSD job in serializable form: it crosses the
// process boundary as JSON, so everything a worker needs to compile the
// same plan — system and recipe — lives here.
type JobSpec struct {
	// Preset is the molecule preset name (molecule.Preset). Exactly one
	// of Preset and Custom must be set.
	Preset string `json:"preset,omitempty"`
	// Custom describes an explicit system instead of a preset.
	Custom *CustomSpec `json:"custom,omitempty"`
	// Variant is the CCSD dataflow variant (ccsd.VariantByName): v1..v5
	// or a flat recipe string, which is also how a segment-height or
	// write-span override travels ("seg=2,fission=sorts,span=2").
	Variant string `json:"variant"`
}

// plan compiles the job for a run of the given rank count: the one
// route from a serialized job to something runnable, taken once by Run
// and by StartProcesses' coordinator, and once in each worker process.
func (s JobSpec) plan(ranks int) (*ccsd.CompiledPlan, error) {
	sys, err := molecule.Resolve(s.Preset, s.Custom)
	if err != nil {
		return nil, fmt.Errorf("netrun: %w", err)
	}
	recipe, err := ccsd.VariantByName(s.Variant)
	if err != nil {
		return nil, err
	}
	return ccsd.Compile(sys, recipe, ccsd.Options{Nodes: ranks}), nil
}

// Policy returns the variant's scheduling policy (priorities when the
// variant uses them, LIFO otherwise) — the same rule every backend
// applies, xform.Recipe.Policy.
func (s JobSpec) Policy() (sched.Policy, error) {
	recipe, err := ccsd.VariantByName(s.Variant)
	if err != nil {
		return sched.PriorityOrder, err
	}
	return recipe.Policy(), nil
}

// planBuild is a rank's graph constructor over a compiled plan.
func planBuild(plan *ccsd.CompiledPlan) BuildFn {
	return func(_ int, store ga.API) (*ptg.Graph, error) { return plan.NewGraph(store), nil }
}

// planCoordSpec builds the coordinator's side of a CCSD job: the task
// count and the counted output whose fold is the energy, both read off
// the plan.
func planCoordSpec(cfg Config, plan *ccsd.CompiledPlan) (coordSpec, error) {
	if plan.Nodes != cfg.Ranks {
		return coordSpec{}, fmt.Errorf("netrun: plan compiled for %d nodes run on %d ranks", plan.Nodes, cfg.Ranks)
	}
	total, err := plan.NumTasks()
	if err != nil {
		return coordSpec{}, err
	}
	return coordSpec{
		numInstances: total,
		output:       plan.CreateOutput,
		graph:        func() *ptg.Graph { return plan.NewGraph(nil) },
	}, nil
}

// ---- multi-process mode ----

// Environment variables of the self-exec protocol: a process launched
// with workerEnv set runs one rank and exits instead of its normal
// main. MaybeWorkerMain in TestMain or main() completes the loop. The
// rank's Config travels as its own JSON, less the fields tagged
// json:"-": the coordinator-side Cancel and the in-process
// SchedObserver.
const (
	workerEnv      = "PARSEC_NETRUN_WORKER"
	workerRankEnv  = "PARSEC_NETRUN_RANK"
	workerCoordEnv = "PARSEC_NETRUN_COORD"
	workerCfgEnv   = "PARSEC_NETRUN_CONFIG"
	workerJobEnv   = "PARSEC_NETRUN_JOB"
)

// Launch is a running multi-process job: the coordinator in this
// process, one OS process per rank.
type Launch struct {
	co   *coordinator
	cmds []*exec.Cmd
}

// StartProcesses launches a CCSD job across cfg.Ranks real OS
// processes by re-executing the current binary (which must call
// MaybeWorkerMain early in main or TestMain). The coordinator and the
// GA server run in the calling process. SchedObserver does not cross
// the process boundary and must be nil.
func StartProcesses(cfg Config, spec JobSpec) (*Launch, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.SchedObserver != nil {
		return nil, fmt.Errorf("netrun: SchedObserver cannot cross the process boundary")
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	jobJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	plan, err := spec.plan(cfg.Ranks)
	if err != nil {
		return nil, err
	}
	cspec, err := planCoordSpec(cfg, plan)
	if err != nil {
		return nil, err
	}
	co, err := startCoordinator(cfg, cspec)
	if err != nil {
		return nil, err
	}
	l := &Launch{co: co, cmds: make([]*exec.Cmd, cfg.Ranks)}
	for r := 0; r < cfg.Ranks; r++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			workerEnv+"=1",
			fmt.Sprintf("%s=%d", workerRankEnv, r),
			workerCoordEnv+"="+co.addr(),
			workerCfgEnv+"="+string(cfgJSON),
			workerJobEnv+"="+string(jobJSON),
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			for _, c := range l.cmds {
				if c != nil && c.Process != nil {
					c.Process.Kill()
				}
			}
			co.fail(fmt.Errorf("netrun: start rank %d: %w", r, err))
			co.wait()
			return nil, err
		}
		l.cmds[r] = cmd
	}
	return l, nil
}

// Kill delivers SIGKILL to one rank's process — the chaos suite's
// "kill -9 a worker mid-run". With Config.Recover set, the run must
// still complete with the correct energy.
func (l *Launch) Kill(rank int) error {
	if rank < 0 || rank >= len(l.cmds) {
		return fmt.Errorf("netrun: kill rank %d of %d", rank, len(l.cmds))
	}
	return l.cmds[rank].Process.Kill()
}

// Wait drives the job to completion and reaps the worker processes.
func (l *Launch) Wait() (*Result, error) {
	res, err := l.co.wait()
	for _, cmd := range l.cmds {
		cmd.Wait() // exit status is authoritative only via the protocol
	}
	return res, err
}

// MaybeWorkerMain checks whether this process was launched as a netrun
// worker; if so it runs the rank to completion and exits, never
// returning. Call it at the top of main() or TestMain before any other
// work.
func MaybeWorkerMain() {
	if os.Getenv(workerEnv) != "1" {
		return
	}
	rank := 0
	if _, err := fmt.Sscanf(os.Getenv(workerRankEnv), "%d", &rank); err != nil {
		fmt.Fprintf(os.Stderr, "netrun worker: bad rank %q: %v\n", os.Getenv(workerRankEnv), err)
		os.Exit(2)
	}
	var cfg Config
	if err := json.Unmarshal([]byte(os.Getenv(workerCfgEnv)), &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "netrun worker %d: bad config: %v\n", rank, err)
		os.Exit(2)
	}
	var spec JobSpec
	if err := json.Unmarshal([]byte(os.Getenv(workerJobEnv)), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "netrun worker %d: bad job: %v\n", rank, err)
		os.Exit(2)
	}
	plan, err := spec.plan(cfg.Ranks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "netrun worker %d: %v\n", rank, err)
		os.Exit(1)
	}
	if err := runWorker(cfg, rank, os.Getenv(workerCoordEnv), plan, planBuild(plan)); err != nil {
		fmt.Fprintf(os.Stderr, "netrun worker %d: %v\n", rank, err)
		os.Exit(1)
	}
	os.Exit(0)
}
