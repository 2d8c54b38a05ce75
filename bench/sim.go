package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/cluster"
	"parsec/internal/ga"
	"parsec/internal/molecule"
	"parsec/internal/sim"
	"parsec/internal/simexec"
	"parsec/internal/tce"
)

// The paper-scale simulation: Fig 9's v5 point at 7 cores per node.
const (
	simNodes = 32
	simCores = 7
)

// simInst is the simulator workload: one job is one ccsd.RunSim of
// beta-carotene v5 on the Cascade-like machine. No real runtime and no
// real arithmetic are involved; the inputs are the paper's fixed
// configuration, so the run seed changes nothing here.
type simInst struct {
	sys  *molecule.System
	spec ccsd.VariantSpec
	mcfg cluster.Config
	want string // the v5,cores_7 cell of docs/fig9.csv

	mu    sync.Mutex
	first sim.Time // makespan of the first job; every later one must equal it
	last  simexec.Result
}

// fig9Cell reads one cell of the committed Fig 9 table.
func fig9Cell(root, variant, column string) (string, error) {
	f, err := os.Open(filepath.Join(root, "docs", "fig9.csv"))
	if err != nil {
		return "", err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return "", fmt.Errorf("docs/fig9.csv: %w", err)
	}
	col := -1
	for i, h := range rows[0] {
		if h == column {
			col = i
		}
	}
	for _, row := range rows[1:] {
		if col >= 0 && row[0] == variant {
			return row[col], nil
		}
	}
	return "", fmt.Errorf("docs/fig9.csv: no cell %s,%s", variant, column)
}

func setupSim(env setupEnv) (instance, error) {
	spec, err := ccsd.VariantByName("v5")
	if err != nil {
		return nil, err
	}
	x := &simInst{sys: molecule.BetaCarotene631G(), spec: spec, mcfg: cluster.CascadeLike()}
	x.mcfg.Nodes = simNodes
	if x.want, err = fig9Cell(env.root, "v5", fmt.Sprintf("cores_%d", simCores)); err != nil {
		return nil, err
	}
	if _, err := x.job(0, 0, nil); err != nil {
		return nil, err
	}
	return x, nil
}

func (x *simInst) close() {}

// job runs one simulation. Its makespan must be the committed Fig 9
// value and the same on every iteration: the simulator is deterministic.
func (x *simInst) job(i, client int, tr *tracer) (int, error) {
	var root int
	if tr != nil {
		root = tr.begin("job", i, client, 0)
		defer tr.end(root)
		defer tr.end(tr.begin("ccsd.run_sim", i, client, root))
	}
	res, err := ccsd.RunSim(x.sys, x.spec, x.mcfg, ccsd.SimRunConfig{CoresPerNode: simCores})
	if err != nil {
		return 0, err
	}
	x.mu.Lock()
	if x.first == 0 {
		x.first = res.Makespan
	}
	first := x.first
	x.last = res
	x.mu.Unlock()
	if got := strconv.FormatFloat(res.Makespan.Seconds(), 'f', 4, 64); got != x.want {
		return 0, fmt.Errorf("simulated makespan %s s, docs/fig9.csv says %s", got, x.want)
	}
	if res.Makespan != first {
		return 0, fmt.Errorf("simulated makespan %d ns differs from the first iteration's %d", res.Makespan, first)
	}
	return res.Tasks, nil
}

// layers reports the simulator stack. RunSim is one public call, so its
// front half is timed alone — inspection with the machine's block
// locator, then graph construction — and the discrete-event run itself
// is what remains of a job.
func (x *simInst) layers(lc *layerCtx) error {
	m := lc.m
	m.set("ptg.instances", float64(x.last.Tasks))
	m.set("simexec.tasks_per_s", float64(x.last.Tasks)/lc.p50)
	m.set("simexec.transfers", float64(x.last.Transfers))
	m.set("simexec.makespan_s", x.last.Makespan.Seconds())

	dist := ga.Distribution{Nodes: x.mcfg.Nodes}
	var inspect, build []float64
	for r := 0; r < lc.reps(3); r++ {
		t0 := time.Now()
		w := tce.Inspect(tce.T2_7(x.sys), func(ref tce.BlockRef) int { return dist.Owner(ref.Tensor, ref.Key) })
		t1 := time.Now()
		ccsd.BuildGraph(w, x.spec, ccsd.Options{Nodes: x.mcfg.Nodes})
		inspect = append(inspect, t1.Sub(t0).Seconds())
		build = append(build, time.Since(t1).Seconds())
	}
	m.set("sim.inspect_s", median(inspect))
	m.set("sim.build_graph_s", median(build))
	m.set("simexec.run_s_est", lc.p50-median(inspect)-median(build))
	return nil
}
