package sim

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	end, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if end != 30 {
		t.Errorf("end time = %d, want 30", end)
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Errorf("order = %v", order)
	}
}

func TestScheduleTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", order)
		}
	}
}

func TestScheduleNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(100, func() {
		e.Schedule(-50, func() { fired = true })
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("negative-delay event did not fire")
	}
}

func TestCancelEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.Schedule(10, func() { fired = true })
	h.Cancel()
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	if !h.Cancelled() {
		t.Error("handle not reported cancelled")
	}
}

func TestProcHold(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Go("p", func(p *Proc) {
		times = append(times, p.Now())
		p.Hold(100)
		times = append(times, p.Now())
		p.Hold(50)
		times = append(times, p.Now())
	})
	end, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if end != 150 {
		t.Errorf("end = %d, want 150", end)
	}
	want := []Time{0, 100, 150}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times = %v, want %v", times, want)
			break
		}
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() string {
		e := NewEngine()
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Hold(Time(10 + i))
					log = append(log, fmt.Sprintf("%d@%d", i, p.Now()))
				}
			})
		}
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(log)
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic interleaving:\n%s\nvs\n%s", first, got)
		}
	}
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Go("ticker", func(p *Proc) {
		for {
			p.Hold(10)
			count++
		}
	})
	end, err := e.Run(105)
	if err != nil {
		t.Fatal(err)
	}
	if end != 105 {
		t.Errorf("end = %d, want horizon 105", end)
	}
	if count != 10 {
		t.Errorf("ticks = %d, want 10", count)
	}
	if e.LiveProcs() != 0 {
		t.Errorf("live procs after horizon = %d", e.LiveProcs())
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	q := NewWaitQ(e)
	e.Go("stuck", func(p *Proc) { q.Wait(p) })
	_, err := e.Run(0)
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Go("p", func(p *Proc) {
		for {
			p.Hold(1)
			count++
			if count == 5 {
				e.Stop()
			}
		}
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
}

func TestWaitQWakeOrder(t *testing.T) {
	e := NewEngine()
	q := NewWaitQ(e)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Go(name, func(p *Proc) {
			q.Wait(p)
			order = append(order, name)
		})
	}
	e.Schedule(10, func() {
		q.WakeOne()
	})
	e.Schedule(20, func() { q.WakeAll() })
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[a b c]" {
		t.Errorf("wake order = %v", order)
	}
}

func TestResourceSemantics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var log []string
	worker := func(name string, hold Time) {
		e.Go(name, func(p *Proc) {
			r.Acquire(p, 1)
			log = append(log, name+"+")
			p.Hold(hold)
			r.Release(1)
			log = append(log, name+"-")
		})
	}
	worker("a", 100)
	worker("b", 100)
	worker("c", 10) // must wait for a or b
	end, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if end != 110 {
		t.Errorf("end = %d, want 110", end)
	}
	// At t=100 a and b resume in start order (their wake events were
	// scheduled first), then c's grant event fires.
	if fmt.Sprint(log) != "[a+ b+ a- b- c+ c-]" {
		t.Errorf("log = %v", log)
	}
}

func TestResourceFIFONoBarging(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var order []string
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 2)
		p.Hold(100)
		r.Release(2)
	})
	e.Schedule(10, func() {
		e.Go("big", func(p *Proc) {
			r.Acquire(p, 2)
			order = append(order, "big")
			r.Release(2)
		})
	})
	e.Schedule(20, func() {
		e.Go("small", func(p *Proc) {
			r.Acquire(p, 1)
			order = append(order, "small")
			r.Release(1)
		})
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[big small]" {
		t.Errorf("order = %v, want big before small (FIFO)", order)
	}
}

func TestMutexExclusionAndCost(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e, 5, 5)
	inside := 0
	maxInside := 0
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			m.Lock(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Hold(10)
			inside--
			m.Unlock(p)
		})
	}
	end, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Errorf("mutual exclusion violated: maxInside = %d", maxInside)
	}
	// Each critical section costs 5 (lock) + 10 (work) + 5 (unlock) = 20.
	if end != 60 {
		t.Errorf("end = %d, want 60", end)
	}
}

func TestBarrierReusable(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, 3)
	phase := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Hold(Time(i * 10))
			b.Arrive(p)
			phase[i] = 1
			p.Hold(Time(i * 5))
			b.Arrive(p)
			phase[i] = 2
		})
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, ph := range phase {
		if ph != 2 {
			t.Errorf("proc %d finished phase %d", i, ph)
		}
	}
}

func TestCounterSerializesAndCharges(t *testing.T) {
	e := NewEngine()
	c := NewCounter(e, 100)
	got := make([]int64, 0, 6)
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("r%d", i), func(p *Proc) {
			got = append(got, c.Next(p))
			got = append(got, c.Next(p))
		})
	}
	end, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	// 6 increments serialized at 100ns each.
	if end != 600 {
		t.Errorf("end = %d, want 600", end)
	}
	seen := map[int64]bool{}
	for _, v := range got {
		if seen[v] {
			t.Errorf("duplicate ticket %d", v)
		}
		seen[v] = true
	}
	if len(got) != 6 || c.Value() != 6 {
		t.Errorf("got %v, value %d", got, c.Value())
	}
}

func TestDurationConversions(t *testing.T) {
	cases := []struct {
		sec  float64
		want Time
	}{
		{0, 0},
		{-1, 0},
		{1, Second},
		{0.5, 500 * Millisecond},
		{1e-9, Nanosecond},
	}
	for _, c := range cases {
		if got := Duration(c.sec); got != c.want {
			t.Errorf("Duration(%v) = %v, want %v", c.sec, got, c.want)
		}
	}
	if s := (1500 * Millisecond).Seconds(); s != 1.5 {
		t.Errorf("Seconds = %v", s)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{2 * Second, "2.000000s"},
		{3 * Millisecond, "3.000ms"},
		{4 * Microsecond, "4.000us"},
		{7, "7ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// Property: for any set of non-negative delays, events fire in
// nondecreasing time order and the engine ends at the max delay.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		var maxT Time
		for _, d := range delays {
			d := Time(d)
			if d > maxT {
				maxT = d
			}
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		end, err := e.Run(0)
		if err != nil {
			return false
		}
		if len(delays) > 0 && end != maxT {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: RNG is deterministic for a fixed seed and Perm returns a
// valid permutation.
func TestPropertyRNG(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		size := int(n%64) + 1
		p := a.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(42)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRNG(7)
	d := Second
	for i := 0; i < 1000; i++ {
		j := r.Jitter(d, 0.1)
		if j < 900*Millisecond || j > 1100*Millisecond {
			t.Fatalf("jitter out of bounds: %v", j)
		}
	}
	if r.Jitter(d, 0) != d {
		t.Error("zero-frac jitter should be identity")
	}
}

// allocsPerOp measures a whole simulation of n operations and of 2n, so
// set-up (engine, processes, coroutines) cancels out: it returns the
// steady-state allocations per operation.
func allocsPerOp(n int, sim func(n int)) float64 {
	a := testing.AllocsPerRun(5, func() { sim(n) })
	b := testing.AllocsPerRun(5, func() { sim(2 * n) })
	return (b - a) / float64(n)
}

// The engine's waits allocate nothing in steady state: a process reuses
// its one wake event, a PS its one completion event and its flow slots,
// a WaitQ its slice.
func TestSteadyStateAllocations(t *testing.T) {
	cases := []struct {
		name string
		sim  func(n int)
	}{
		{"Hold", func(n int) {
			e := NewEngine()
			e.Go("p", func(p *Proc) {
				for i := 0; i < n; i++ {
					p.Hold(1)
				}
			})
			e.Run(0)
		}},
		{"PS.Use", func(n int) {
			e := NewEngine()
			ps := NewPS(e, "bw", 1e9)
			for _, name := range []string{"a", "b"} {
				e.Go(name, func(p *Proc) {
					for i := 0; i < n; i++ {
						ps.Use(p, 1e3)
					}
				})
			}
			e.Run(0)
		}},
		{"WaitQ", func(n int) {
			e := NewEngine()
			q := NewWaitQ(e)
			e.Go("waiter", func(p *Proc) {
				for i := 0; i < n; i++ {
					q.Wait(p)
				}
			})
			e.Go("waker", func(p *Proc) {
				for i := 0; i < n; i++ {
					p.Hold(1)
					q.WakeOne()
				}
			})
			e.Run(0)
		}},
	}
	for _, c := range cases {
		if got := allocsPerOp(1000, c.sim); got > 0 {
			t.Errorf("%s: %v allocations per operation in steady state, want 0", c.name, got)
		}
	}
}

// However Run ends, no process outlives it: blocked, sleeping and
// never-started processes are all unwound, so the goroutine count returns
// to where it was.
func TestRunLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name    string
		horizon Time
		build   func(e *Engine)
		wantErr bool
	}{
		{"deadlock", 0, func(e *Engine) {
			q := NewWaitQ(e)
			for i := 0; i < 4; i++ {
				e.Go(fmt.Sprint("w", i), func(p *Proc) {
					p.Hold(Time(i))
					q.Wait(p)
				})
			}
		}, true},
		{"horizon", 50, func(e *Engine) {
			q := NewWaitQ(e)
			ps := NewPS(e, "bw", 1)
			e.Go("sleeper", func(p *Proc) { p.Hold(Second) })
			e.Go("waiter", func(p *Proc) { q.Wait(p) })
			e.Go("flow", func(p *Proc) { ps.Use(p, 10) })
		}, false},
		{"stop", 0, func(e *Engine) {
			e.Go("ticker", func(p *Proc) {
				for {
					p.Hold(10)
				}
			})
			e.Schedule(35, func() {
				e.Go("never-started", func(p *Proc) { t.Error("abandoned process ran") })
				e.Stop()
			})
		}, false},
	}
	for _, c := range cases {
		base := runtime.NumGoroutine()
		e := NewEngine()
		c.build(e)
		if _, err := e.Run(c.horizon); (err != nil) != c.wantErr {
			t.Errorf("%s: Run error = %v, want error %v", c.name, err, c.wantErr)
		}
		if n := e.LiveProcs(); n != 0 {
			t.Errorf("%s: %d live processes after Run", c.name, n)
		}
		if n := runtime.NumGoroutine(); n != base {
			t.Errorf("%s: %d goroutines after Run, %d before", c.name, n, base)
		}
	}
}

// A body's own panic is not swallowed and does not crash the program from
// a goroutine nobody can recover: it comes out of Run, and the other
// processes are unwound on the way.
func TestBodyPanicComesOutOfRun(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	q := NewWaitQ(e)
	e.Go("waiter", func(p *Proc) { q.Wait(p) })
	e.Go("boom", func(p *Proc) {
		p.Hold(5)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v from Run, want the body's panic", r)
			}
		}()
		e.Run(0)
		t.Error("Run returned normally")
	}()
	if n := e.LiveProcs(); n != 0 {
		t.Errorf("%d live processes after the panic", n)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("%d goroutines after the panic, %d before", n, base)
	}
	if _, err := e.Run(0); err != nil {
		t.Errorf("Run after a panic: %v", err)
	}
}

// BenchmarkEngineSwitch reports the cost of one virtual wait: a Hold, and
// a PS.Use sharing the resource with a second flow.
func BenchmarkEngineSwitch(b *testing.B) {
	b.Run("Hold", func(b *testing.B) {
		e := NewEngine()
		e.Go("p", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Hold(1)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if _, err := e.Run(0); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("PSUse2", func(b *testing.B) {
		e := NewEngine()
		ps := NewPS(e, "bw", 1e9)
		for i, n := range []int{b.N - b.N/2, b.N / 2} {
			e.Go(fmt.Sprint("flow", i), func(p *Proc) {
				for k := 0; k < n; k++ {
					ps.Use(p, 1e3)
				}
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		if _, err := e.Run(0); err != nil {
			b.Fatal(err)
		}
	})
}

// FIFO keeps arrival order through rewinds and compactions, and a queue
// that never empties keeps its backing array near its longest backlog.
func TestFIFOOrderAndBound(t *testing.T) {
	rng := NewRNG(3)
	var q FIFO[int]
	var ref []int
	longest := 0
	for i := 0; i < 20000; i++ {
		if len(ref) < 2 || (len(ref) < 64 && rng.Intn(2) == 0) {
			q.Push(i)
			ref = append(ref, i)
			longest = max(longest, len(ref))
		} else {
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: popped %d, want %d", i, got, ref[0])
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) || (len(ref) > 0 && q.Front() != ref[0]) {
			t.Fatalf("step %d: Len %d, want %d", i, q.Len(), len(ref))
		}
	}
	if c := cap(q.buf); c > 4*longest {
		t.Errorf("backing array grew to %d for a longest backlog of %d", c, longest)
	}
}
