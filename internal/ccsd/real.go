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

// filledStore returns a fresh single-node store holding the workload's
// two input tensors, every distinct block filled, and an empty output
// array: the state one real execution starts from.
func filledStore(w *tce.Workload) *ga.Store {
	store := ga.NewStore(1)
	aName, bName := w.InputTensors()
	for _, name := range []string{aName, bName} {
		arr := store.Create(name)
		for _, ref := range w.UniqueBlocks(name) {
			w.FillBlock(ref, arr.GetOrCreate(ref.Key, ref.Dims))
		}
	}
	store.Create(tce.TensorC)
	return store
}

// ReferenceEnergy computes the ground-truth energy with the serial
// reference executor.
func ReferenceEnergy(w *tce.Workload) float64 {
	a, b := w.Materialize()
	return w.Energy(w.RunReference(a, b))
}
