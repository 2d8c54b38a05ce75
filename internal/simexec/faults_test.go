package simexec

import (
	"testing"

	"parsec/internal/cluster"
	"parsec/internal/fault"
	"parsec/internal/ga"
	"parsec/internal/sim"
)

// faultMachine is testMachine with a fault injector installed.
func faultMachine(nodes, cores int, fc fault.Config) (*cluster.Machine, *ga.Sim, *fault.Injector) {
	cfg := cluster.CascadeLike()
	cfg.Nodes = nodes
	cfg.CoresPerNode = cores
	cfg.JitterFrac = 0
	e := sim.NewEngine()
	m := cluster.New(e, cfg)
	inj := fault.New(fc)
	m.SetFaults(inj)
	return m, ga.NewSim(m), inj
}

// TestSpikeLatencyCharged: a spike on every transfer delays the serial
// pipeline by exactly n spikes.
func TestSpikeLatencyCharged(t *testing.T) {
	const n, spike = 5, 400 * sim.Microsecond
	m0, gs0 := testMachine(2, 1)
	base, err := Run(pipelineGraph(n, 1e5), m0, gs0, Config{CoresPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	m1, gs1, _ := faultMachine(2, 1, fault.Config{Seed: 5, SpikeProb: 1, SpikeLatency: spike})
	res, err := Run(pipelineGraph(n, 1e5), m1, gs1, Config{CoresPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < base.Makespan+n*spike {
		t.Errorf("makespan %v < fault-free %v + %d spikes", res.Makespan, base.Makespan, n)
	}
}
