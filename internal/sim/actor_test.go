package sim

import (
	"fmt"
	"testing"
)

// orderStep is one recorded step of a differential program: which
// activity did what, at which virtual time.
type orderStep struct {
	who, op string
	at      Time
}

// diffProgram is one seeded random program over Hold, PS, WaitQ,
// Resource and Mutex: procs activities doing ops steps each, plus a
// waker that releases the wait queue until they have all finished. It
// runs either as processes or as callback actors; in both forms every
// activity draws its choices from one RNG at the moment it reaches them,
// so any difference in which activity runs when, or at what virtual time,
// changes the step sequence.
type diffProgram struct {
	horizon    Time
	stopAt     Time // Stop at this time if > 0
	procs, ops int
	e          *Engine
	rng        *RNG
	bw, gemm   *PS
	res        *Resource
	mu         *Mutex
	q          *WaitQ
	steps      []orderStep
	finished   int
	end        Time
	err        error
}

func newDiffProgram(seed uint64, horizon, stopAt Time) *diffProgram {
	e := NewEngine()
	d := &diffProgram{horizon: horizon, stopAt: stopAt, procs: 8, ops: 80, e: e, rng: NewRNG(seed)}
	d.bw = NewPS(e, "bw", 1e9)
	d.gemm = NewPS(e, "gemm", 1)
	d.gemm.SetPerFlowCap(2e8)
	d.gemm.SetContention(0.3)
	d.res = NewResource(e, 3)
	d.mu = NewMutex(e, 7, 3)
	d.q = NewWaitQ(e)
	return d
}

func (d *diffProgram) step(who, op string) {
	d.steps = append(d.steps, orderStep{who, op, d.e.Now()})
}

func (d *diffProgram) run() {
	if d.stopAt > 0 {
		d.e.Schedule(d.stopAt, d.e.Stop)
	}
	d.end, d.err = d.e.Run(d.horizon)
}

// asProcs runs the program with every activity a Proc.
func (d *diffProgram) asProcs() *diffProgram {
	rng, e := d.rng, d.e
	e.Go("waker", func(p *Proc) {
		for d.finished < d.procs {
			p.Hold(Time(1 + rng.Intn(20000)))
			d.wake()
		}
	})
	for i := 0; i < d.procs; i++ {
		name := fmt.Sprint("a", i)
		e.Go(name, func(p *Proc) {
			for k := 0; k < d.ops; k++ {
				op := rng.Intn(6)
				switch op {
				case 0:
					p.Hold(Time(rng.Intn(500)))
				case 1:
					d.bw.Use(p, float64(rng.Intn(100000)))
				case 2:
					d.gemm.Use(p, float64(1+rng.Intn(20000)))
				case 3:
					d.q.Wait(p)
				case 4:
					n := 1 + rng.Intn(3)
					d.res.Acquire(p, n)
					p.Hold(Time(rng.Intn(100)))
					d.res.Release(n)
				case 5:
					d.mu.Lock(p)
					p.Hold(Time(rng.Intn(50)))
					d.mu.Unlock(p)
				}
				d.step(name, fmt.Sprint(op))
			}
			d.finished++
		})
	}
	d.run()
	return d
}

// wake is one round of the waker, in either form.
func (d *diffProgram) wake() {
	if d.rng.Intn(3) == 0 {
		d.q.WakeAll()
	} else {
		d.q.WakeOne()
	}
	d.step("waker", "wake")
}

// diffActor is one activity of the program as a callback actor: its
// event runs cont, the continuation its last wait left behind.
type diffActor struct {
	ev   Event
	cont func()
}

// wait leaves k to run when the actor's event fires.
func (a *diffActor) wait(k func()) { a.cont = k }

// asActors runs the same program with every activity a callback actor.
func (d *diffProgram) asActors() *diffProgram {
	rng, e := d.rng, d.e
	waker := &diffActor{}
	waker.ev.Bind(func() { waker.cont() })
	var wakerLoop func()
	wakerLoop = func() {
		if d.finished < d.procs {
			e.After(&waker.ev, Time(1+rng.Intn(20000)))
			waker.wait(func() { d.wake(); wakerLoop() })
		}
	}
	waker.cont = wakerLoop
	e.After(&waker.ev, 0)

	for i := 0; i < d.procs; i++ {
		name := fmt.Sprint("a", i)
		a := &diffActor{}
		a.ev.Bind(func() { a.cont() })
		k := 0
		var loop func()
		loop = func() {
			for ; k < d.ops; k++ {
				op := rng.Intn(6)
				done := func() {
					d.step(name, fmt.Sprint(op))
					k++
					loop()
				}
				switch op {
				case 0:
					e.After(&a.ev, Time(rng.Intn(500)))
					a.wait(done)
					return
				case 1:
					if d.bw.Start(&a.ev, float64(rng.Intn(100000))) {
						a.wait(done)
						return
					}
				case 2:
					if d.gemm.Start(&a.ev, float64(1+rng.Intn(20000))) {
						a.wait(done)
						return
					}
				case 3:
					d.q.Park(&a.ev)
					a.wait(done)
					return
				case 4:
					n := 1 + rng.Intn(3)
					admitted := func() {
						e.After(&a.ev, Time(rng.Intn(100)))
						a.wait(func() {
							d.res.Release(n)
							done()
						})
					}
					if d.res.Request(&a.ev, n) {
						a.wait(admitted)
					} else {
						admitted()
					}
					return
				case 5:
					released := func() {
						d.mu.Release()
						done()
					}
					unlock := func() {
						if d.mu.UnlockCost > 0 {
							e.After(&a.ev, d.mu.UnlockCost)
							a.wait(released)
						} else {
							released()
						}
					}
					locked := func() {
						e.After(&a.ev, Time(rng.Intn(50)))
						a.wait(unlock)
					}
					admitted := func() {
						if d.mu.LockCost > 0 {
							e.After(&a.ev, d.mu.LockCost)
							a.wait(locked)
						} else {
							locked()
						}
					}
					if d.mu.Acquire(&a.ev) {
						a.wait(admitted)
					} else {
						admitted()
					}
					return
				}
				d.step(name, fmt.Sprint(op))
			}
			d.finished++
		}
		a.cont = loop
		e.After(&a.ev, 0)
	}
	d.run()
	return d
}

// TestActorsStepLikeProcs is the differential pin of the one wait
// mechanism: the same seeded program, once as processes and once as
// callback actors handing their own events to the same primitives, takes
// the identical (activity, op, Now) step sequence and ends Run the same
// way — run to the end, cut by a horizon, or stopped.
func TestActorsStepLikeProcs(t *testing.T) {
	exits := []struct {
		name            string
		horizon, stopAt Time
	}{
		{"end", 0, 0},
		{"horizon", 700 * Microsecond, 0},
		{"stop", 0, 900 * Microsecond},
	}
	for seed := uint64(1); seed <= 6; seed++ {
		for _, x := range exits {
			procs := newDiffProgram(seed, x.horizon, x.stopAt).asProcs()
			actors := newDiffProgram(seed, x.horizon, x.stopAt).asActors()
			if procs.end != actors.end || fmt.Sprint(procs.err) != fmt.Sprint(actors.err) {
				t.Errorf("seed %d %s: procs ended at %v (%v), actors at %v (%v)",
					seed, x.name, procs.end, procs.err, actors.end, actors.err)
			}
			if x.name == "end" && (procs.finished != procs.procs || procs.err != nil) {
				t.Errorf("seed %d: program did not run to its end: %d of %d finished, %v",
					seed, procs.finished, procs.procs, procs.err)
			}
			if x.name != "end" && procs.finished == procs.procs {
				t.Errorf("seed %d %s: the exit cut nothing short", seed, x.name)
			}
			n := min(len(procs.steps), len(actors.steps))
			for i := 0; i < n; i++ {
				if procs.steps[i] != actors.steps[i] {
					t.Fatalf("seed %d %s: step %d: procs %+v, actors %+v", seed, x.name, i, procs.steps[i], actors.steps[i])
				}
			}
			if len(procs.steps) != len(actors.steps) {
				t.Errorf("seed %d %s: procs took %d steps, actors %d", seed, x.name, len(procs.steps), len(actors.steps))
			}
		}
	}
}
