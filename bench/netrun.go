package main

import (
	"fmt"
	"sync"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/netrun"
)

// netrunInst is the distributed workload: one job is one netrun.Run of
// the generated problem across two in-process ranks of one worker each,
// talking over TCP loopback with the coordinator serving Global Arrays.
type netrunInst struct {
	p    problem
	spec netrun.JobSpec
	cfg  netrun.Config

	mu  sync.Mutex
	sum netrunSums // over every job, traced or not: the calls are the same
}

// netrunSums accumulates netrun.Result's counters; the results
// themselves are dropped, so the harness does not hold the per-task
// event lists a Result carries.
type netrunSums struct {
	jobs, tasks, msgs, bytes, accOps, accBytes, getBytes, retries, dups float64
}

// netrunSpec is the serializable form of a generated problem.
func netrunSpec(p problem) netrun.JobSpec {
	return netrun.JobSpec{Variant: "v5", Custom: &netrun.CustomSpec{
		Name: p.shape.name, NOccupied: p.shape.occ, NVirtual: p.shape.virt,
		TileTarget: p.shape.tile, NIrreps: p.shape.irreps, Seed: p.seed,
	}}
}

// netrunConfig is the placement every netrun job of the benchmark uses:
// as many executor threads in total as the shared-memory workloads have
// workers.
func netrunConfig(spec netrun.JobSpec) (netrun.Config, error) {
	policy, err := spec.Policy()
	if err != nil {
		return netrun.Config{}, err
	}
	return netrun.Config{Ranks: 2, Workers: 1, Policy: policy}, nil
}

func setupNetrun(env setupEnv) (instance, error) {
	p, err := newProblem(benzeneShape, env.seed)
	if err != nil {
		return nil, err
	}
	x := &netrunInst{p: p, spec: netrunSpec(p)}
	if x.cfg, err = netrunConfig(x.spec); err != nil {
		return nil, err
	}
	if _, err := x.job(0, 0, nil); err != nil {
		return nil, err
	}
	x.sum = netrunSums{}
	return x, nil
}

func (x *netrunInst) close() {}

// job makes the one public call either way; traced, a span wraps it and
// a child span marks the part the coordinator itself timed
// (Result.Elapsed), so the parent's self time is listener and rank
// bring-up and teardown.
func (x *netrunInst) job(i, client int, tr *tracer) (int, error) {
	var root, call int
	if tr != nil {
		root = tr.begin("job", i, client, 0)
		defer tr.end(root)
		call = tr.begin("netrun.run", i, client, root)
	}
	res, err := netrun.Run(x.cfg, x.spec)
	end := time.Now()
	if tr != nil {
		tr.end(call)
		if err == nil {
			tr.add("netrun.coordinated", i, client, call, end.Add(-res.Elapsed), end)
		}
	}
	if err != nil {
		return 0, err
	}
	if !res.HasEnergy {
		return 0, fmt.Errorf("netrun: job returned no energy")
	}
	x.mu.Lock()
	x.sum.jobs++
	x.sum.tasks += float64(res.Tasks)
	for _, rank := range res.PerRank {
		x.sum.msgs += float64(rank.Comm.MsgsSent)
	}
	x.sum.bytes += float64(res.Comm.TotalBytes)
	x.sum.accOps += float64(res.Comm.AccOps)
	x.sum.accBytes += float64(res.Comm.AccBytes)
	x.sum.getBytes += float64(res.Comm.GetBytes)
	x.sum.retries += float64(res.Recovery.Retries)
	x.sum.dups += float64(res.Recovery.DupSuppressed)
	x.mu.Unlock()
	return res.Tasks, x.p.check(res.Energy)
}

// layers reports the netrun layer from netrun.Result's own counters,
// plus two comparisons: the same problem on the shared-memory runtime
// with the same total workers, and a water-sized job whose run time is
// almost all bring-up.
func (x *netrunInst) layers(lc *layerCtx) error {
	m, s := lc.m, x.sum
	m.set("ptg.instances", s.tasks/s.jobs)
	m.set("tce.reference_s", x.p.refDur.Seconds())
	m.set("netrun.msgs_per_task", s.msgs/s.tasks)
	m.set("netrun.bytes_per_task", s.bytes/s.tasks)
	m.set("netrun.acc_bytes_per_job", s.accBytes/s.jobs)
	// Ranks count what they send; Get replies are the coordinator's
	// sends, which ranks count as received GetBytes.
	m.set("netrun.coord_byte_share", (s.accBytes+s.getBytes)/(s.bytes+s.getBytes))
	m.set("netrun.retransmits", s.retries/s.jobs)
	m.set("netrun.dup_suppressed", s.dups/s.jobs)
	_, _, loopTasks := counts(lc.loop.rounds)
	m.set("netrun.alloc_bytes_per_task", float64(lc.loop.allocBytes)/float64(loopTasks))
	m.set("ga.acc_ops_per_job", s.accOps/s.jobs)
	m.set("ga.acc_ns_per_op", accNsPerOp(x.p.plan.Workload, lc.probeBudget))

	var shared []float64
	for r := 0; r < lc.reps(5); r++ {
		t0 := time.Now()
		res, err := x.p.plan.Execute(ccsd.ExecConfig{Workers: x.cfg.Ranks * x.cfg.Workers})
		if err != nil {
			return err
		}
		shared = append(shared, time.Since(t0).Seconds())
		if err := x.p.check(res.Energy); err != nil {
			return err
		}
	}
	m.set("netrun.slowdown_vs_runtime", lc.p50/median(shared))

	water, err := newProblem(waterShape, x.p.seed)
	if err != nil {
		return err
	}
	wspec := netrunSpec(water)
	wcfg, err := netrunConfig(wspec)
	if err != nil {
		return err
	}
	var startup []float64
	for r := 0; r < lc.reps(5); r++ {
		t0 := time.Now()
		res, err := netrun.Run(wcfg, wspec)
		if err != nil {
			return err
		}
		startup = append(startup, time.Since(t0).Seconds())
		if err := water.check(res.Energy); err != nil {
			return err
		}
	}
	m.set("netrun.startup_s", median(startup))
	return nil
}
