package sim

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// actor is a test activity run as a callback actor: its one event runs
// the steps queued in next, in order, until one has to wait.
type actor struct {
	e    *Engine
	ev   Event
	next []step
	done bool
}

// step is one stretch of an actor's program: it hands the actor's event
// to a primitive and reports whether the actor must wait for it, or does
// its work inline and reports false.
type step func(a *actor) bool

// spawn starts an actor running steps at the current virtual time, after
// everything already queued for this instant.
func spawn(e *Engine, steps ...step) *actor {
	a := &actor{e: e, next: steps}
	a.ev.Bind(a.resume)
	e.After(&a.ev, 0)
	return a
}

// then queues steps ahead of the rest of the actor's program.
func (a *actor) then(steps ...step) { a.next = slices.Concat(steps, a.next) }

func (a *actor) resume() {
	for len(a.next) > 0 {
		s := a.next[0]
		a.next = a.next[1:]
		if s(a) {
			return
		}
	}
	a.done = true
}

// The steps the tests build programs from.

func hold(d Time) step {
	return func(a *actor) bool { a.e.After(&a.ev, d); return true }
}

// cost holds d if it is positive, the way a priced lock, unlock or
// counter round trip charges its cost.
func cost(d Time) step {
	return func(a *actor) bool { return d > 0 && hold(d)(a) }
}

// draw holds for rng.Intn(n), drawn when the actor reaches the step.
func draw(rng *RNG, n int) step {
	return func(a *actor) bool { return hold(Time(rng.Intn(n)))(a) }
}

func use(ps *PS, amount float64) step {
	return func(a *actor) bool { return ps.Start(&a.ev, amount) }
}

func park(q *WaitQ) step {
	return func(a *actor) bool { q.Park(&a.ev); return true }
}

func request(r *Resource, n int) step {
	return func(a *actor) bool { return r.Request(&a.ev, n) }
}

func do(f func()) step {
	return func(*actor) bool { f(); return false }
}

// lock acquires m and then holds its LockCost.
func lock(m *Mutex) step {
	return func(a *actor) bool {
		a.then(cost(m.LockCost))
		return m.Acquire(&a.ev)
	}
}

// unlock holds m's UnlockCost and then releases it.
func unlock(m *Mutex) step {
	return func(a *actor) bool {
		a.then(do(m.Release))
		return cost(m.UnlockCost)(a)
	}
}

func arrive(b *Barrier) step {
	return func(a *actor) bool { return b.Arrive(&a.ev) }
}

// next takes one ticket from c into *v: request the server, hold the
// round trip, take.
func next(c *Counter, v *int64) step {
	return func(a *actor) bool {
		a.then(cost(c.RTT), do(func() { *v = c.Take() }))
		return c.Request(&a.ev)
	}
}

// loop runs the steps round returns, then asks it again, until it
// returns none.
func loop(round func() []step) step {
	var s step
	s = func(a *actor) bool {
		if r := round(); r != nil {
			a.then(append(r, s)...)
		}
		return false
	}
	return s
}

// orderStep is one recorded step of a differential program: which
// activity did what, at which virtual time.
type orderStep struct {
	who, op string
	at      Time
}

// diffProgram is one seeded random program over Hold, PS, WaitQ,
// Resource and Mutex: procs activities doing ops steps each, plus a
// waker that releases the wait queue until they have all finished. Every
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

// wake is one round of the waker.
func (d *diffProgram) wake() {
	if d.rng.Intn(3) == 0 {
		d.q.WakeAll()
	} else {
		d.q.WakeOne()
	}
	d.step("waker", "wake")
}

// asActors runs the program with every activity a callback actor.
func (d *diffProgram) asActors() *diffProgram {
	rng, e := d.rng, d.e
	spawn(e, loop(func() []step {
		if d.finished == d.procs {
			return nil
		}
		return []step{func(a *actor) bool { return hold(Time(1 + rng.Intn(20000)))(a) }, do(d.wake)}
	}))
	for i := 0; i < d.procs; i++ {
		name := fmt.Sprint("a", i)
		k := 0
		spawn(e, loop(func() []step {
			if k == d.ops {
				d.finished++
				return nil
			}
			k++
			op := rng.Intn(6)
			var r []step
			switch op {
			case 0:
				r = []step{hold(Time(rng.Intn(500)))}
			case 1:
				r = []step{use(d.bw, float64(rng.Intn(100000)))}
			case 2:
				r = []step{use(d.gemm, float64(1+rng.Intn(20000)))}
			case 3:
				r = []step{park(d.q)}
			case 4:
				n := 1 + rng.Intn(3)
				r = []step{request(d.res, n), draw(rng, 100), do(func() { d.res.Release(n) })}
			case 5:
				r = []step{lock(d.mu), draw(rng, 50), unlock(d.mu)}
			}
			return append(r, do(func() { d.step(name, fmt.Sprint(op)) }))
		}))
	}
	d.run()
	return d
}

// TestActorsStepLikeProcs pins the one wait mechanism with the seeded
// programs: run as callback actors handing their own events to the
// primitives, each takes exactly the (activity, op, Now) steps recorded
// in testdata/actor_steps.golden and ends Run at the recorded time —
// run to the end, cut by a horizon, or stopped. The golden was recorded
// from the same programs written as coroutine processes, which took
// those steps identically, so it is never regenerated.
func TestActorsStepLikeProcs(t *testing.T) {
	exits := []struct {
		name            string
		horizon, stopAt Time
	}{
		{"end", 0, 0},
		{"horizon", 700 * Microsecond, 0},
		{"stop", 0, 900 * Microsecond},
	}
	var buf bytes.Buffer
	for seed := uint64(1); seed <= 6; seed++ {
		for _, x := range exits {
			d := newDiffProgram(seed, x.horizon, x.stopAt).asActors()
			if d.err != nil {
				t.Errorf("seed %d %s: %v", seed, x.name, d.err)
			}
			if x.name == "end" && d.finished != d.procs {
				t.Errorf("seed %d: program did not run to its end: %d of %d finished", seed, d.finished, d.procs)
			}
			if x.name != "end" && d.finished == d.procs {
				t.Errorf("seed %d %s: the exit cut nothing short", seed, x.name)
			}
			h := fnv.New64a()
			for _, s := range d.steps {
				fmt.Fprintf(h, "%s %s %d\n", s.who, s.op, s.at)
			}
			fmt.Fprintf(&buf, "%s seed=%d steps=%d end=%d hash=%016x\n", x.name, seed, len(d.steps), d.end, h.Sum64())
		}
	}
	golden := filepath.Join("testdata", "actor_steps.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("actor programs drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, buf.Bytes(), want)
	}
}
