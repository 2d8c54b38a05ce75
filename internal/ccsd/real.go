package ccsd

import (
	"math"

	"parsec/internal/ga"
	"parsec/internal/runtime"
	"parsec/internal/tce"
)

// RealResult is the outcome of a shared-memory execution with real data.
// All variants must agree with the serial reference to ~14 digits
// (§IV-A).
type RealResult struct {
	Energy float64
	Report runtime.Report
}

// EnergyTol is the relative bound energy comparisons hold to: a
// schedule, a queue structure, a straggler or a process boundary may
// move work, never the energy, beyond the fold-order rounding of the
// reductions. Relative, because |E| spans ~3 (water) to ~450
// (benzene-sized systems), where an absolute 1e-12 is under one
// ulp-scale fold-order difference.
const EnergyTol = 1e-12

// EnergyRelDiff returns |a-b| relative to the larger magnitude (0 when
// both are 0) — the quantity compared against EnergyTol.
func EnergyRelDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}

// inputStore returns a fresh single-node store for one real execution:
// the workload's two input tensors as lazy arrays — a block fills when
// its first READ calls ga_access and retires when its last GEMM calls
// ga_release, so the inputs flow through the graph under the variant's
// read-ahead window instead of being materialized before it starts —
// and an empty output array. It costs one slice of block states per
// tensor; the block tables are the workload's.
func inputStore(w *tce.Workload) *ga.Store {
	store := ga.NewStore(1)
	a, b := w.Inputs()
	store.CreateLazy(a.Name, a)
	store.CreateLazy(b.Name, b)
	store.Create(tce.TensorC)
	return store
}

// ReferenceEnergy computes the ground-truth energy with the serial
// reference executor.
func ReferenceEnergy(w *tce.Workload) float64 {
	a, b := w.Materialize()
	return w.Energy(w.RunReference(a, b))
}
