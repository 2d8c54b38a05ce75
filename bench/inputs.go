package main

import (
	"fmt"
	"math"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/molecule"
	"parsec/internal/tce"
)

// energyTol is the repository's agreement rule between any executor's
// correlation energy and the serial reference (internal/ccsd tests).
const energyTol = 1e-12

// minConditioning is the smallest |E| / (its standard deviation over
// random data) a generated system may have. The energy is an inner
// product of zero-mean pseudo-random tensors, so about one seed in a
// thousand lands so close to zero that legitimate reassociation of the
// GEMM chain exceeds energyTol in relative terms. Such a seed says
// nothing about the program; the generator skips to the next one.
// Measured over 1,200 jobs of the four shapes, a job's energy differs
// from the reference by 2.5e-15 standard deviations (rms; 1e-14 at the
// most), so at this floor the relative difference stays under 2e-13.
const minConditioning = 0.05

// relDiff is the relative difference used with energyTol.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}

// sysShape is the orbital-space structure of a system: everything that
// decides how much work a job is. The amplitude seed is chosen per run.
type sysShape struct {
	name                    string
	occ, virt, tile, irreps int
}

// The shapes of the repository's presets; a workload is a preset's
// structure with amplitudes drawn from the run's seed.
var (
	waterShape    = sysShape{"water/6-31G", 5, 8, 3, 2}
	benzeneShape  = sysShape{"benzene/6-31G", 21, 45, 12, 2}
	uracilShape   = sysShape{"uracil/6-31G", 29, 59, 16, 4}
	dispatchShape = sysShape{"dispatch", 12, 24, 4, 2}
)

// problem is one generated input with its ground truth: the compiled
// v5 plan and the serial reference energy every job is checked against.
type problem struct {
	shape      sysShape
	seed       uint64 // the system's amplitude seed
	plan       *ccsd.CompiledPlan
	ref        float64
	compileDur time.Duration // ccsd.Compile (inspection + chain planning)
	refDur     time.Duration // Workload.RunReference alone, one thread
}

// splitmix is the SplitMix64 finalizer: it spreads consecutive run seeds
// over the 64-bit space of amplitude seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newProblem generates the system of the given shape for seed, compiles
// it as v5 and computes its serial reference energy. The same seed
// always yields the same system; ill-conditioned draws (see
// minConditioning) are skipped deterministically.
func newProblem(shape sysShape, seed uint64) (problem, error) {
	spec, err := ccsd.VariantByName("v5")
	if err != nil {
		return problem{}, err
	}
	for attempt := uint64(0); attempt < 16; attempt++ {
		p := problem{shape: shape, seed: splitmix(seed + attempt<<32)}
		sys := molecule.Custom(shape.name, shape.occ, shape.virt, shape.tile, shape.irreps, p.seed)
		t0 := time.Now()
		p.plan = ccsd.Compile(sys, spec, ccsd.Options{Nodes: 1})
		p.compileDur = time.Since(t0)
		w := p.plan.Workload
		a, b := w.Materialize()
		t0 = time.Now()
		c := w.RunReference(a, b)
		p.refDur = time.Since(t0)
		p.ref = w.Energy(c)

		wt := w.Weights()
		var elems int
		for _, ref := range w.UniqueBlocks(tce.TensorC) {
			elems += ref.Elems()
		}
		sigma := math.Sqrt(c.Dot(c)*wt.Dot(wt)) / math.Sqrt(float64(elems))
		if math.Abs(p.ref) >= minConditioning*sigma {
			return p, nil
		}
	}
	return problem{}, fmt.Errorf("no well-conditioned %s system near seed %d", shape.name, seed)
}

// check applies the correctness gate to one job's energy.
func (p problem) check(energy float64) error {
	if d := relDiff(energy, p.ref); !(d <= energyTol) {
		return fmt.Errorf("%s seed %#x: energy %.17g differs from serial reference %.17g by %.3g (> %g)",
			p.shape.name, p.seed, energy, p.ref, d, energyTol)
	}
	return nil
}
