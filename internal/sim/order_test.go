package sim

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
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
// time and error Run ended with, and an FNV-64a hash of every step as
// (process, op, Now). The program draws all its choices from one RNG
// that whichever process is running consumes, so any change in which
// process runs when, or at what virtual time, changes the hash.
func orderProgram(seed uint64, sc orderScenario) string {
	const procs, ops = 10, 100
	rng := NewRNG(seed)
	e := NewEngine()
	h := fnv.New64a()
	steps := 0
	step := func(proc, op string) {
		steps++
		fmt.Fprintf(h, "%s %s %d\n", proc, op, e.Now())
	}

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

	e.Go("waker", func(p *Proc) {
		for finished < procs {
			p.Hold(Time(1 + rng.Intn(20000)))
			if rng.Intn(3) == 0 {
				q.WakeAll()
			} else {
				q.WakeOne()
			}
			step(p.Name(), "wake")
		}
	})
	children := 0
	child := func(parent string) {
		children++
		e.Go(fmt.Sprintf("%s.c%d", parent, children), func(p *Proc) {
			p.Hold(Time(rng.Intn(200)))
			bw.Use(p, float64(1+rng.Intn(50000)))
			step(p.Name(), "child")
		})
	}
	for i := 0; i < procs; i++ {
		name := fmt.Sprintf("p%d", i)
		e.Go(name, func(p *Proc) {
			for k := 0; k < ops; k++ {
				if k == ops/2 {
					bar.Arrive(p)
					step(name, "barrier")
					continue
				}
				op := rng.Intn(9)
				switch op {
				case 0:
					p.Hold(Time(rng.Intn(500)))
				case 1:
					bw.Use(p, float64(1+rng.Intn(100000)))
				case 2:
					gemm.Use(p, float64(1+rng.Intn(20000)))
				case 3:
					q.Wait(p)
				case 4:
					n := 1 + rng.Intn(3)
					res.Acquire(p, n)
					p.Hold(Time(rng.Intn(100)))
					res.Release(n)
				case 5:
					mu.Lock(p)
					p.Hold(Time(rng.Intn(50)))
					mu.Unlock(p)
				case 6:
					ctr.Next(p)
				case 7:
					act := rng.Intn(3)
					handles = append(handles, e.Schedule(Time(rng.Intn(1000)), func() {
						step(name, fmt.Sprintf("cb%d", act))
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
				step(name, fmt.Sprint(op))
			}
			finished++
		})
	}

	var horizon Time
	switch sc {
	case runToHorizon:
		horizon = Millisecond
	case runToStop:
		e.Schedule(1500*Microsecond, e.Stop)
	case runToDeadlock:
		stuck := NewWaitQ(e)
		e.Go("stuck", func(p *Proc) {
			p.Hold(Time(rng.Intn(5000)))
			step(p.Name(), "stuck")
			stuck.Wait(p)
		})
	}
	end, err := e.Run(horizon)
	return fmt.Sprintf("%s seed=%d steps=%d end=%d err=%v hash=%016x",
		sc, seed, steps, end, err, h.Sum64())
}

// TestEngineOrderGolden pins the engine's event order, not only its
// Fig 9 output: generated programs mixing Schedule, Cancel, Hold,
// PS.Use, WaitQ, Resource, Mutex, Barrier, Counter and processes
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
