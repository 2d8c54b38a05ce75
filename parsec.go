// Package parsec is a Go reimplementation of the system described in
// "PaRSEC in Practice: Optimizing a Legacy Chemistry Application through
// Distributed Task-Based Execution" (Danalis, Jagode, Bosilca, Dongarra;
// IEEE CLUSTER 2015): a Parameterized-Task-Graph (PTG) dataflow runtime,
// the Global Arrays and Tensor Contraction Engine substrates it is
// evaluated against, and the ported CCSD icsd_t2_7 subroutine with the
// paper's five algorithmic variants.
//
// The package is a facade over the implementation packages:
//
//   - PTG model and graph building (internal/ptg): task classes with
//     symbolic guarded dataflow, as in the paper's Fig 1;
//   - a shared-memory goroutine runtime executing graphs with real data
//     (internal/runtime);
//   - a deterministic discrete-event simulator of a distributed-memory
//     cluster (internal/sim, internal/cluster) on which the paper's
//     32-node experiments are reproduced (internal/simexec,
//     internal/cgp);
//   - the chemistry application layer: orbital-space models
//     (internal/molecule), the TCE-style loop nest and inspection phase
//     (internal/tce), and the ported kernel with variants v1..v5
//     (internal/ccsd).
//
// Quick start (see examples/quickstart for a complete program):
//
//	g := parsec.NewGraph("my-app")
//	// ... define task classes, flows, priorities ...
//	report, err := parsec.Run(g, parsec.RunConfig{Workers: 8})
//
// Reproducing the paper's headline experiment (Fig 9):
//
//	sys, _ := parsec.Molecule("betacarotene")
//	v5, _ := parsec.Variant("v5")
//	res, _ := parsec.Simulate(sys, v5, parsec.Cascade(), parsec.SimConfig{CoresPerNode: 15})
//
// The same variant with real tensor arithmetic, on a system small enough
// to hold in memory — one compiled plan, one execution, checked against
// the serial reference:
//
//	w := parsec.Inspect(small)
//	real, _ := parsec.RunCCSD(w, v5, 8)
//	ok := math.Abs(real.Energy-parsec.ReferenceEnergy(w)) <= 1e-12*math.Abs(real.Energy)
package parsec

import (
	"parsec/internal/ccsd"
	"parsec/internal/cluster"
	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/sched"
	"parsec/internal/simexec"
	"parsec/internal/tce"
	"parsec/internal/trace"
)

// ---- PTG model ----

// Graph is a Parameterized Task Graph: a set of task classes with
// symbolic dataflow between them.
type Graph = ptg.Graph

// TaskClass is one parameterized class of tasks.
type TaskClass = ptg.TaskClass

// Flow is one named dataflow of a task class.
type Flow = ptg.Flow

// Args holds the parameter values of a task instance.
type Args = ptg.Args

// TaskRef names a task instance (class + parameters).
type TaskRef = ptg.TaskRef

// DataRef names a terminal datum outside the graph.
type DataRef = ptg.DataRef

// Ctx is the execution context passed to task bodies.
type Ctx = ptg.Ctx

// Cost is the simulated execution cost of a task.
type Cost = ptg.Cost

// Access modes of flows, as in the PTG notation.
const (
	Read  = ptg.Read
	RW    = ptg.RW
	Write = ptg.Write
)

// NewGraph returns an empty graph.
func NewGraph(name string) *Graph { return ptg.NewGraph(name) }

// A1 builds a 1-parameter argument vector.
func A1(a int) Args { return ptg.A1(a) }

// A2 builds a 2-parameter argument vector.
func A2(a, b int) Args { return ptg.A2(a, b) }

// ---- shared-memory execution ----

// RunConfig configures a shared-memory run.
type RunConfig = runtime.Config

// Report summarizes a shared-memory run.
type Report = runtime.Report

// Policy orders ready tasks (RunConfig.Policy): by descending priority,
// with creation order breaking ties (the zero value), or
// most-recently-enabled first. One definition lives in internal/sched
// and is shared by every executor.
type Policy = sched.Policy

// QueueMode selects the ready-queue structure of the sharded scheduler
// (RunConfig.Queues): one shared queue (the zero value), statically
// pinned per-worker queues, or pinned queues with randomized work
// stealing (PaRSEC's per-thread queues, §IV-D).
type QueueMode = sched.QueueMode

// SchedStats are the scheduler's internal counters for one run
// (steal attempts/hits, parks, wakes, per-worker task counts, queue
// depth), available as Report.Sched.
type SchedStats = runtime.SchedStats

// Run executes a graph with real data on worker goroutines.
func Run(g *Graph, cfg RunConfig) (Report, error) { return runtime.Run(g, cfg) }

// ---- chemistry application layer ----

// System is a tiled molecular problem.
type System = molecule.System

// Molecule returns a named preset system: "water", "benzene", or
// "betacarotene" (the paper's 472-basis-function evaluation input).
func Molecule(preset string) (*System, error) { return molecule.Preset(preset) }

// Workload is the inspected icsd_t2_7 workload: chains of GEMMs with
// their metadata (§III-B).
type Workload = tce.Workload

// Inspect runs the inspection phase of the T2_7 kernel for a system.
func Inspect(sys *System) *Workload { return tce.Inspect(tce.T2_7(sys), nil) }

// VariantSpec selects one algorithmic variant (§IV-A): a recipe of
// graph-transformation passes resolved to a plan shape.
type VariantSpec = ccsd.VariantSpec

// Variants returns the five variants evaluated in §V.
func Variants() []VariantSpec { return ccsd.Variants() }

// Variant returns the variant for a paper name ("v1".."v5") or a flat
// recipe string such as "seg=1,tree=4,fission=sorts" (the grammar is in
// the error of any failed parse).
func Variant(name string) (VariantSpec, error) { return ccsd.VariantByName(name) }

// RealResult is the outcome of executing the ported kernel with real
// arithmetic.
type RealResult = ccsd.RealResult

// RunCCSD executes one variant of the ported subroutine with real tensor
// arithmetic on the goroutine runtime.
func RunCCSD(w *Workload, spec VariantSpec, workers int) (RealResult, error) {
	return ccsd.CompileWorkload(w, spec, ccsd.Options{Nodes: 1}).Execute(ccsd.ExecConfig{Workers: workers})
}

// ReferenceEnergy computes the serial ground-truth correlation-energy
// functional for a workload.
func ReferenceEnergy(w *Workload) float64 { return ccsd.ReferenceEnergy(w) }

// ---- simulated cluster execution ----

// ClusterConfig holds the machine-model knobs.
type ClusterConfig = cluster.Config

// Cascade returns the calibrated 32-node configuration standing in for
// the paper's PNNL Cascade partition.
func Cascade() ClusterConfig { return cluster.CascadeLike() }

// SimConfig configures one simulated execution.
type SimConfig = ccsd.SimRunConfig

// SimResult summarizes a simulated execution.
type SimResult = simexec.Result

// Trace holds what a run recorded, one span per task execution, for
// rendering (Figs 10-13).
type Trace = trace.Trace

// NewTrace returns an empty trace collector.
func NewTrace() *Trace { return trace.New() }

// Simulate executes one PaRSEC variant of the kernel on a simulated
// cluster and returns its makespan and statistics.
func Simulate(sys *System, spec VariantSpec, mcfg ClusterConfig, rc SimConfig) (SimResult, error) {
	return ccsd.RunSim(sys, spec, mcfg, rc)
}

// SimulateBaseline executes the original CGP code path on a simulated
// cluster, returning the makespan in seconds of virtual time.
func SimulateBaseline(sys *System, mcfg ClusterConfig, ranksPerNode int, tr *Trace) (float64, error) {
	res, err := ccsd.RunSimSeries(sys, ccsd.BaselineName, mcfg, ccsd.SimRunConfig{CoresPerNode: ranksPerNode, Trace: tr})
	return res.Makespan.Seconds(), err
}
