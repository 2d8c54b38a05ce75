package netrun

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"parsec/internal/molecule"
	"parsec/internal/sched"
)

// TestCancelPreClosed covers the worst cancellation race: the channel is
// already closed when the run starts, so the coordinator cancels
// immediately after the welcome broadcast. The shutdown frames must
// still be delivered (not cut off by the transport teardown) so every
// rank exits promptly instead of idling until its deadline.
func TestCancelPreClosed(t *testing.T) {
	c := make(chan struct{})
	close(c)
	t0 := time.Now()
	_, err := Run(Config{Ranks: 2, Workers: 1, Cancel: c}, JobSpec{Preset: "water", Variant: "v5"})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(t0); elapsed > 30*time.Second {
		t.Fatalf("pre-closed cancel took %v — ranks idled to a deadline instead of shutting down", elapsed)
	}
}

// TestCancelMidRun cancels a benzene job once it is measurably under
// way — on the fiftieth task popped across the ranks, not after a
// wall-clock delay the job might beat: the run must return ErrCanceled
// with thousands of tasks still to go, and the rank goroutines must
// unwind cleanly.
func TestCancelMidRun(t *testing.T) {
	c := make(chan struct{})
	var pops atomic.Int64
	cfg := Config{Ranks: 2, Workers: 1, Cancel: c, SchedObserver: func(ev sched.Event) {
		if ev.Op == sched.OpPop && pops.Add(1) == 50 {
			close(c)
		}
	}}
	_, err := Run(cfg, JobSpec{Preset: "benzene", Variant: "v5"})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v after %d pops, want ErrCanceled", err, pops.Load())
	}
}

// TestCustomSpecSystem checks the serializable custom-system spec
// resolves like its molecule.Custom counterpart and validates its
// inputs.
func TestCustomSpecSystem(t *testing.T) {
	spec := JobSpec{Custom: &CustomSpec{NOccupied: 4, NVirtual: 8, TileTarget: 4, NIrreps: 2, Seed: 7}, Variant: "v5"}
	sys, err := molecule.Resolve(spec.Preset, spec.Custom)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name != "custom" || sys.NOccupied != 4 || sys.NVirtual != 8 {
		t.Fatalf("resolved system = %+v", sys)
	}
	if _, err := (JobSpec{Preset: "water", Custom: spec.Custom, Variant: "v5"}).plan(2); err == nil {
		t.Fatal("spec with both preset and custom was accepted")
	}
	if _, err := (JobSpec{Custom: &CustomSpec{NOccupied: -1, NVirtual: 8, TileTarget: 4}, Variant: "v5"}).plan(2); err == nil {
		t.Fatal("negative n_occupied was accepted")
	}
	if _, err := (JobSpec{Variant: "v5"}).plan(2); err == nil {
		t.Fatal("spec with neither preset nor custom was accepted")
	}
}
