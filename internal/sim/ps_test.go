package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPSSingleFlow(t *testing.T) {
	e := NewEngine()
	ps := NewPS(e, "bw", 1e9) // 1 GB/s
	var end Time
	spawn(e, use(ps, 1e6), do(func() { end = e.Now() })) // 1 MB
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := Millisecond
	if diff := end - want; diff < -10 || diff > 10 {
		t.Errorf("1MB at 1GB/s took %v, want ~%v", end, want)
	}
}

func TestPSFairSharing(t *testing.T) {
	e := NewEngine()
	ps := NewPS(e, "bw", 1e9)
	ends := map[string]Time{}
	for _, name := range []string{"a", "b"} {
		spawn(e, use(ps, 1e6), do(func() { ends[name] = e.Now() }))
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	// Two equal flows sharing capacity both finish at ~2ms.
	for name, end := range ends {
		if diff := end - 2*Millisecond; diff < -20 || diff > 20 {
			t.Errorf("flow %s ended at %v, want ~2ms", name, end)
		}
	}
}

func TestPSLateJoiner(t *testing.T) {
	e := NewEngine()
	ps := NewPS(e, "bw", 1e9)
	var endA, endB Time
	spawn(e, use(ps, 2e6), do(func() { endA = e.Now() }))
	spawn(e, hold(Millisecond), use(ps, 1e6), do(func() { endB = e.Now() }))
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	// a runs alone for 1ms (1MB done), then shares for 2ms (1MB more each):
	// a ends at 3ms with its 2MB; b ends at 3ms with its 1MB.
	for _, c := range []struct {
		name string
		got  Time
		want Time
	}{{"a", endA, 3 * Millisecond}, {"b", endB, 3 * Millisecond}} {
		if diff := c.got - c.want; diff < -50 || diff > 50 {
			t.Errorf("%s ended at %v, want ~%v", c.name, c.got, c.want)
		}
	}
}

func TestPSZeroAmountImmediate(t *testing.T) {
	e := NewEngine()
	ps := NewPS(e, "bw", 1e9)
	var ev Event
	if ps.Start(&ev, 0) || ps.Start(&ev, -5) || ps.Start(&ev, math.NaN()) {
		t.Error("a flow of no work asked its caller to wait")
	}
	if end, err := e.Run(0); end != 0 || err != nil {
		t.Errorf("zero-amount Start advanced time to %v (%v)", end, err)
	}
}

func TestPSManyFlowsConservation(t *testing.T) {
	e := NewEngine()
	ps := NewPS(e, "bw", 1e8)
	const n = 20
	const amount = 1e6
	var latest Time
	for i := 0; i < n; i++ {
		spawn(e, use(ps, amount), do(func() { latest = max(latest, e.Now()) }))
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	// Total work n*amount at capacity 1e8/s -> 200ms regardless of sharing.
	want := Duration(n * amount / 1e8)
	if diff := latest - want; diff < -Microsecond || diff > Microsecond {
		t.Errorf("makespan %v, want ~%v", latest, want)
	}
}

func TestPSBusyTime(t *testing.T) {
	e := NewEngine()
	ps := NewPS(e, "bw", 1e9)
	spawn(e, hold(Millisecond), use(ps, 1e6)) // idle gap first, then 1ms busy
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if b := ps.BusyTime(); b < 900*Microsecond || b > 1100*Microsecond {
		t.Errorf("BusyTime = %v, want ~1ms", b)
	}
}

// Property: makespan of any batch of flows started together equals
// total/capacity (work conservation), and every flow sees a duration of at
// least its uncontended time.
func TestPropertyPSWorkConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 32 {
			return true
		}
		e := NewEngine()
		cap := 1e6
		ps := NewPS(e, "bw", cap)
		var total float64
		var latest Time
		ok := true
		for _, s := range sizes {
			amount := float64(s) + 1
			total += amount
			minT := Duration(amount / cap)
			spawn(e, use(ps, amount), do(func() {
				if e.Now() < minT-10*Microsecond {
					ok = false
				}
				latest = max(latest, e.Now())
			}))
		}
		if _, err := e.Run(0); err != nil {
			return false
		}
		want := Duration(total / cap)
		if latest < want-Millisecond || latest > want+Millisecond {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPSPerFlowCap(t *testing.T) {
	e := NewEngine()
	ps := NewPS(e, "gemm", 100) // capacity 100 units/s
	ps.SetPerFlowCap(10)        // but one flow can only draw 10
	var end Time
	spawn(e, use(ps, 10), do(func() { end = e.Now() })) // 10 units at 10/s -> 1s, not 0.1s
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if end < 990*Millisecond || end > 1010*Millisecond {
		t.Errorf("capped flow took %v, want ~1s", end)
	}
}

func TestPSContentionModel(t *testing.T) {
	e := NewEngine()
	ps := NewPS(e, "gemm", 1) // capacity ignored under contention
	ps.SetPerFlowCap(10)
	ps.SetContention(0.5)
	// Two concurrent flows: each at 10/(1+0.5) = 6.67/s; 10 units -> 1.5s.
	var ends [2]Time
	for i := 0; i < 2; i++ {
		spawn(e, use(ps, 10), do(func() { ends[i] = e.Now() }))
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, end := range ends {
		if end < 1490*Millisecond || end > 1510*Millisecond {
			t.Errorf("flow %d ended at %v, want ~1.5s", i, end)
		}
	}
}

func TestPSContentionAboveOneDegradesAggregate(t *testing.T) {
	e := NewEngine()
	ps := NewPS(e, "gasrv", 1)
	ps.SetPerFlowCap(10)
	ps.SetContention(2) // aggregate falls with load
	var latest Time
	const n = 4
	for i := 0; i < n; i++ {
		spawn(e, use(ps, 10), do(func() { latest = max(latest, e.Now()) }))
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	// Four flows at 10/(1+2*3) = 10/7 each: 10 units take 7s; aggregate
	// 40/7 = 5.7/s < the 10/s a single flow would get.
	if latest < 6900*Millisecond || latest > 7100*Millisecond {
		t.Errorf("overloaded makespan %v, want ~7s", latest)
	}
}

func TestPSSetupPanics(t *testing.T) {
	e := NewEngine()
	ps := NewPS(e, "x", 1)
	for _, fn := range []func(){
		func() { ps.SetContention(0.5) }, // requires per-flow cap first
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
