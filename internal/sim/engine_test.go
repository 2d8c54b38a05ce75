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
}

func TestProcHold(t *testing.T) {
	e := NewEngine()
	var times []Time
	now := do(func() { times = append(times, e.Now()) })
	spawn(e, now, hold(100), now, hold(50), now)
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
			var steps []step
			for j := 0; j < 3; j++ {
				steps = append(steps, hold(Time(10+i)), do(func() {
					log = append(log, fmt.Sprintf("%d@%d", i, e.Now()))
				}))
			}
			spawn(e, steps...)
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

// ticker returns a step that holds d and then calls tick, forever.
func ticker(d Time, tick func()) step {
	return loop(func() []step { return []step{hold(d), do(tick)} })
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine()
	count := 0
	spawn(e, ticker(10, func() { count++ }))
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
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	spawn(e, ticker(1, func() {
		count++
		if count == 5 {
			e.Stop()
		}
	}))
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
		spawn(e, park(q), do(func() { order = append(order, name) }))
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
	worker := func(name string, d Time) {
		spawn(e, request(r, 1), do(func() { log = append(log, name+"+") }), hold(d), do(func() {
			r.Release(1)
			log = append(log, name+"-")
		}))
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
	spawn(e, request(r, 2), hold(100), do(func() { r.Release(2) }))
	for _, w := range []struct {
		at   Time
		name string
		n    int
	}{{10, "big", 2}, {20, "small", 1}} {
		e.Schedule(w.at, func() {
			spawn(e, request(r, w.n), do(func() {
				order = append(order, w.name)
				r.Release(w.n)
			}))
		})
	}
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
		spawn(e, lock(m), do(func() {
			inside++
			maxInside = max(maxInside, inside)
		}), hold(10), do(func() { inside-- }), unlock(m))
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
		spawn(e, hold(Time(i*10)), arrive(b), do(func() { phase[i] = 1 }),
			hold(Time(i*5)), arrive(b), do(func() { phase[i] = 2 }))
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, ph := range phase {
		if ph != 2 {
			t.Errorf("actor %d finished phase %d", i, ph)
		}
	}
}

func TestCounterSerializesAndCharges(t *testing.T) {
	e := NewEngine()
	c := NewCounter(e, 100)
	got := make([]int64, 6)
	for i := 0; i < 3; i++ {
		spawn(e, next(c, &got[2*i]), next(c, &got[2*i+1]))
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
	if c.Value() != 6 {
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
// set-up (engine, actors) cancels out: it returns the steady-state
// allocations per operation.
func allocsPerOp(n int, sim func(n int)) float64 {
	a := testing.AllocsPerRun(5, func() { sim(n) })
	b := testing.AllocsPerRun(5, func() { sim(2 * n) })
	return (b - a) / float64(n)
}

// twoFlows starts two actors that each Start n flows of 1e3 units on a
// shared PS, one after the other.
func twoFlows(e *Engine, ps *PS, n int) {
	for _, left := range []int{n - n/2, n / 2} {
		a := &struct {
			ev   Event
			left int
		}{left: left}
		a.ev.Bind(func() {
			for a.left > 0 {
				a.left--
				if ps.Start(&a.ev, 1e3) {
					return
				}
			}
		})
		e.After(&a.ev, 0)
	}
}

// The engine's waits allocate nothing in steady state: an actor reuses
// its one event, a PS its one completion event and its flow slots, a
// WaitQ its slice.
func TestSteadyStateAllocations(t *testing.T) {
	cases := []struct {
		name string
		sim  func(n int)
	}{
		{"Hold and Park", func(n int) {
			e := NewEngine()
			q := NewWaitQ(e)
			var waiter, waker Event
			parks, wakes := n, n
			waiter.Bind(func() {
				if parks > 0 {
					parks--
					q.Park(&waiter)
				}
			})
			waker.Bind(func() {
				q.WakeOne()
				if wakes > 0 {
					wakes--
					e.After(&waker, 1)
				}
			})
			e.After(&waiter, 0)
			e.After(&waker, 0)
			e.Run(0)
		}},
		{"PS.Start", func(n int) {
			e := NewEngine()
			twoFlows(e, NewPS(e, "bw", 1e9), 2*n)
			e.Run(0)
		}},
	}
	for _, c := range cases {
		if got := allocsPerOp(1000, c.sim); got > 0 {
			t.Errorf("%s: %v allocations per operation in steady state, want 0", c.name, got)
		}
	}
}

// However Run ends, it starts no goroutine and leaves no event pending:
// a second Run has nothing left to do.
func TestRunLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name    string
		horizon Time
		build   func(e *Engine)
	}{
		{"drained", 0, func(e *Engine) {
			q := NewWaitQ(e)
			for i := 0; i < 4; i++ {
				spawn(e, hold(Time(i)), park(q))
			}
		}},
		{"horizon", 50, func(e *Engine) {
			ps := NewPS(e, "bw", 1)
			spawn(e, hold(Second))
			spawn(e, park(NewWaitQ(e)))
			spawn(e, use(ps, 10))
		}},
		{"stop", 0, func(e *Engine) {
			spawn(e, ticker(10, func() {}))
			e.Schedule(35, func() {
				spawn(e, do(func() { t.Error("abandoned actor ran") }))
				e.Stop()
			})
		}},
	}
	for _, c := range cases {
		base := runtime.NumGoroutine()
		e := NewEngine()
		c.build(e)
		end, err := e.Run(c.horizon)
		if err != nil {
			t.Errorf("%s: Run error = %v", c.name, err)
		}
		if n := runtime.NumGoroutine(); n != base {
			t.Errorf("%s: %d goroutines after Run, %d before", c.name, n, base)
		}
		if again, err := e.Run(0); again != end || err != nil {
			t.Errorf("%s: a second Run ended at %v (%v), the first at %v", c.name, again, err, end)
		}
	}
}

// An actor's own panic is not swallowed: it comes out of Run, the events
// still pending are dropped, and the engine runs again.
func TestBodyPanicComesOutOfRun(t *testing.T) {
	e := NewEngine()
	waiter := spawn(e, hold(10), do(func() { t.Error("dropped event fired") }))
	spawn(e, hold(5), do(func() { panic("boom") }))
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v from Run, want the body's panic", r)
			}
		}()
		e.Run(0)
		t.Error("Run returned normally")
	}()
	if end, err := e.Run(0); end != 5 || err != nil || waiter.done {
		t.Errorf("Run after a panic ended at %v (%v), waiter done %v", end, err, waiter.done)
	}
}

// BenchmarkEngineSwitch reports the cost of one virtual wait: a Hold, and
// a PS.Start sharing the resource with a second flow, each made by a
// callback actor handing its owned event to the primitive.
func BenchmarkEngineSwitch(b *testing.B) {
	b.Run("ActorHold", func(b *testing.B) {
		e := NewEngine()
		var ev Event
		left := b.N
		ev.Bind(func() {
			if left > 0 {
				left--
				e.After(&ev, 1)
			}
		})
		e.After(&ev, 0)
		b.ReportAllocs()
		b.ResetTimer()
		if _, err := e.Run(0); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("ActorPSStart2", func(b *testing.B) {
		e := NewEngine()
		twoFlows(e, NewPS(e, "bw", 1e9), b.N)
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
