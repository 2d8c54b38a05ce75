package sim

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/engine_order.golden")

// orderScenario ends a generated program one of the four ways Run can end.
type orderScenario int

const (
	runToEnd orderScenario = iota
	runToHorizon
	runToStop
	runToDeadlock
)

func (s orderScenario) String() string {
	return [...]string{"end", "horizon", "stop", "deadlock"}[s]
}

// orderProgram runs one seeded, generated program over every engine
// primitive and returns one line naming its seed, its step count, the
// time Run ended at, the actors a drained queue left stuck, and an
// FNV-64a hash of every step as (actor, op, Now). The program draws all
// its choices from one RNG that whichever actor is running consumes, so
// any change in which actor runs when, or at what virtual time, changes
// the hash.
func orderProgram(seed uint64, sc orderScenario) string {
	const procs, ops = 10, 100
	rng := NewRNG(seed)
	e := NewEngine()
	h := fnv.New64a()
	steps := 0
	record := func(who, op string) {
		steps++
		fmt.Fprintf(h, "%s %s %d\n", who, op, e.Now())
	}
	did := func(who, op string) step { return do(func() { record(who, op) }) }

	bw := NewPS(e, "bw", 1e9)
	gemm := NewPS(e, "gemm", 1)
	gemm.SetPerFlowCap(2e8)
	gemm.SetContention(0.3)
	res := NewResource(e, 3)
	mu := NewMutex(e, 7, 3)
	ctr := NewCounter(e, 40)
	bar := NewBarrier(e, procs)
	q := NewWaitQ(e)
	var handles []*EventHandle
	finished := 0
	var names []string
	var actors []*actor
	start := func(name string, steps ...step) {
		names = append(names, name)
		actors = append(actors, spawn(e, steps...))
	}

	start("waker", loop(func() []step {
		if finished == procs {
			return nil
		}
		return []step{
			func(a *actor) bool { return hold(Time(1 + rng.Intn(20000)))(a) },
			do(func() {
				if rng.Intn(3) == 0 {
					q.WakeAll()
				} else {
					q.WakeOne()
				}
				record("waker", "wake")
			}),
		}
	}))
	children := 0
	child := func(parent string) {
		children++
		name := fmt.Sprintf("%s.c%d", parent, children)
		start(name, draw(rng, 200), func(a *actor) bool {
			return bw.Start(&a.ev, float64(1+rng.Intn(50000)))
		}, did(name, "child"))
	}
	for i := 0; i < procs; i++ {
		name := fmt.Sprintf("p%d", i)
		k := 0
		start(name, loop(func() []step {
			switch k++; {
			case k > ops:
				finished++
				return nil
			case k-1 == ops/2:
				return []step{arrive(bar), did(name, "barrier")}
			}
			op := rng.Intn(9)
			var r []step
			switch op {
			case 0:
				r = []step{hold(Time(rng.Intn(500)))}
			case 1:
				r = []step{use(bw, float64(1+rng.Intn(100000)))}
			case 2:
				r = []step{use(gemm, float64(1+rng.Intn(20000)))}
			case 3:
				r = []step{park(q)}
			case 4:
				n := 1 + rng.Intn(3)
				r = []step{request(res, n), draw(rng, 100), do(func() { res.Release(n) })}
			case 5:
				r = []step{lock(mu), draw(rng, 50), unlock(mu)}
			case 6:
				var v int64
				r = []step{next(ctr, &v)}
			case 7:
				act := rng.Intn(3)
				handles = append(handles, e.Schedule(Time(rng.Intn(1000)), func() {
					record(name, fmt.Sprintf("cb%d", act))
					switch act {
					case 1:
						q.WakeOne()
					case 2:
						child(name)
					}
				}))
			case 8:
				if len(handles) > 0 {
					handles[rng.Intn(len(handles))].Cancel()
				}
			}
			return append(r, did(name, fmt.Sprint(op)))
		}))
	}

	var horizon Time
	switch sc {
	case runToHorizon:
		horizon = Millisecond
	case runToStop:
		e.Schedule(1500*Microsecond, e.Stop)
	case runToDeadlock:
		start("stuck", draw(rng, 5000), did("stuck", "stuck"), park(NewWaitQ(e)))
	}
	end, err := e.Run(horizon)
	if err == nil && (sc == runToEnd || sc == runToDeadlock) {
		// The queue ran dry: any actor not done waits forever.
		var stuck []string
		for i, a := range actors {
			if !a.done {
				stuck = append(stuck, names[i])
			}
		}
		if len(stuck) > 0 {
			sort.Strings(stuck)
			err = fmt.Errorf("deadlock, %d actor(s) never finished: %v", len(stuck), stuck)
		}
	}
	return fmt.Sprintf("%s seed=%d steps=%d end=%d err=%v hash=%016x",
		sc, seed, steps, end, err, h.Sum64())
}

// TestEngineOrderGolden pins the engine's event order, not only its
// Fig 9 output: generated programs mixing Schedule, Cancel, After,
// PS.Start, WaitQ, Resource, Mutex, Barrier, Counter and actors
// spawned from callbacks, each ended by completion, horizon, Stop and
// deadlock, must take exactly the steps at exactly the times recorded
// in testdata/engine_order.golden. Regenerate (only for an intended
// order change) with: go test ./internal/sim -run EngineOrderGolden -update
func TestEngineOrderGolden(t *testing.T) {
	var buf bytes.Buffer
	for seed := uint64(1); seed <= 4; seed++ {
		for sc := runToEnd; sc <= runToDeadlock; sc++ {
			fmt.Fprintln(&buf, orderProgram(seed, sc))
		}
	}
	golden := filepath.Join("testdata", "engine_order.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("engine order drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, buf.Bytes(), want)
	}
}
