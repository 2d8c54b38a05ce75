package sched

import (
	"math/rand"
	"sort"
	"testing"

	"parsec/internal/ptg"
)

// inst builds a bare instance carrying only what the scheduling core
// reads: priority and creation sequence.
func inst(prio int64, seq int) *ptg.Instance {
	return &ptg.Instance{Ref: ptg.TaskRef{Class: "T", Args: ptg.A1(seq)}, Priority: prio, Seq: seq}
}

// TestBeforeTotalOrder pins the core's one total order: descending
// priority, ties broken by ascending creation sequence. Before this
// package existed the real runtime (readyHeap.Less) and the simulator
// (taskBefore) each carried a copy of this comparison; this test is the
// regression guard that the unified Before keeps exactly that order.
func TestBeforeTotalOrder(t *testing.T) {
	cases := []struct {
		name string
		a, b *ptg.Instance
		want bool
	}{
		{"higher priority first", inst(5, 9), inst(3, 0), true},
		{"lower priority later", inst(3, 0), inst(5, 9), false},
		{"tie broken by earlier seq", inst(4, 2), inst(4, 7), true},
		{"tie not broken by later seq", inst(4, 7), inst(4, 2), false},
		{"negative priorities order too", inst(-1, 0), inst(-2, 1), true},
		{"equal task not before itself", inst(4, 2), inst(4, 2), false},
	}
	for _, c := range cases {
		if got := Before(c.a, c.b); got != c.want {
			t.Errorf("%s: Before(p%d/s%d, p%d/s%d) = %v, want %v", c.name,
				c.a.Priority, c.a.Seq, c.b.Priority, c.b.Seq, got, c.want)
		}
	}
}

// TestHeapPopOrder pushes instances in scrambled order and checks the
// heap drains them in the Before order.
func TestHeapPopOrder(t *testing.T) {
	var h Heap
	for _, in := range []*ptg.Instance{
		inst(1, 4), inst(3, 1), inst(1, 2), inst(3, 0), inst(2, 3),
	} {
		h.PushTask(in)
	}
	want := []int{0, 1, 3, 2, 4} // by (prio desc, seq asc): (3,0) (3,1) (2,3) (1,2) (1,4)
	for i, seq := range want {
		in := h.PopTask()
		if in.Seq != seq {
			t.Fatalf("pop %d: seq = %d, want %d", i, in.Seq, seq)
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap not drained: %d left", len(h))
	}
}

// TestHeapRandomOps drives the inline sifts through random pushes, pops
// and mid-heap removals against a sorted reference: every pop must be
// the Before-best of what is queued, whatever RemoveAt took out.
func TestHeapRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Heap
	var ref []*ptg.Instance // kept sorted by Before
	remove := func(in *ptg.Instance) {
		for i, r := range ref {
			if r == in {
				ref = append(ref[:i], ref[i+1:]...)
				return
			}
		}
		t.Fatalf("removed %v which the reference does not hold", in)
	}
	for seq := 0; seq < 4000; seq++ {
		in := inst(int64(rng.Intn(8)), seq)
		h.PushTask(in)
		k := sort.Search(len(ref), func(k int) bool { return Before(in, ref[k]) })
		ref = append(ref[:k], append([]*ptg.Instance{in}, ref[k:]...)...)
		switch rng.Intn(4) {
		case 0:
			if got := h.PopTask(); got != ref[0] {
				t.Fatalf("after %d ops: pop p%d/s%d, want p%d/s%d", seq, got.Priority, got.Seq, ref[0].Priority, ref[0].Seq)
			}
			ref = ref[1:]
		case 1:
			remove(h.RemoveAt(rng.Intn(len(h))))
		}
	}
	for len(ref) > 0 {
		if got := h.PopTask(); got != ref[0] {
			t.Fatalf("drain: pop p%d/s%d, want p%d/s%d", got.Priority, got.Seq, ref[0].Priority, ref[0].Seq)
		}
		ref = ref[1:]
	}
	if len(h) != 0 {
		t.Fatalf("heap not drained: %d left", len(h))
	}
}

// TestQueueDiscipline pins the discipline rule: a queue is a LIFO stack
// only in the SharedQueue+LIFOOrder configuration; every other
// Policy×QueueMode combination serves Before order. Per-worker queues
// heap-order even under LIFOOrder so a steal always takes a victim's
// best task — the behavior both executors have always had.
func TestQueueDiscipline(t *testing.T) {
	push := []*ptg.Instance{inst(1, 0), inst(9, 1), inst(5, 2)}
	heapOrder := []int{1, 2, 0}
	lifoOrder := []int{2, 1, 0}
	for _, pol := range []Policy{PriorityOrder, LIFOOrder} {
		for _, mode := range []QueueMode{SharedQueue, PerWorker, PerWorkerSteal} {
			q := NewQueue(pol, mode)
			for _, in := range push {
				q.Push(in)
			}
			want := heapOrder
			if pol == LIFOOrder && mode == SharedQueue {
				want = lifoOrder
			}
			for i, seq := range want {
				if pk := q.Peek(); pk == nil || pk.Seq != seq {
					t.Fatalf("%v/%v peek %d: got %v, want seq %d", pol, mode, i, pk, seq)
				}
				in, left := q.Pop()
				if in.Seq != seq {
					t.Fatalf("%v/%v pop %d: seq = %d, want %d", pol, mode, i, in.Seq, seq)
				}
				if left != len(push)-1-i {
					t.Fatalf("%v/%v pop %d: left = %d, want %d", pol, mode, i, left, len(push)-1-i)
				}
			}
			if in, _ := q.Pop(); in != nil {
				t.Fatalf("%v/%v: pop on empty queue returned %v", pol, mode, in)
			}
		}
	}
}

// TestHomeQueuePinning pins the static assignment both executors share:
// queue Seq mod n, collapsing to queue 0 for a single queue.
func TestHomeQueuePinning(t *testing.T) {
	if got := HomeQueue(inst(0, 7), 1); got != 0 {
		t.Errorf("HomeQueue(seq 7, n=1) = %d, want 0", got)
	}
	if got := HomeQueue(inst(0, 7), 3); got != 1 {
		t.Errorf("HomeQueue(seq 7, n=3) = %d, want 1", got)
	}
	s := NewSet(4, PriorityOrder, SharedQueue, nil, nil)
	if s.Queues() != 1 {
		t.Errorf("SharedQueue set has %d queues, want 1", s.Queues())
	}
}

// TestSetStealBest checks the simulator's deterministic sibling steal:
// the thief takes the Before-best head among every queue but its own.
func TestSetStealBest(t *testing.T) {
	s := NewSet(3, PriorityOrder, PerWorkerSteal, nil, nil)
	// Home pinning is Seq%3: seq 0 -> q0 (the thief's own), seq 1 -> q1,
	// seq 5 -> q2.
	s.Push(inst(9, 0)) // own queue: must not be stolen from
	s.Push(inst(3, 1))
	s.Push(inst(7, 5))
	if in := s.StealBest(0); in == nil || in.Seq != 5 {
		t.Fatalf("steal = %v, want seq 5 (the best sibling head)", in)
	}
	if in := s.StealBest(0); in == nil || in.Seq != 1 {
		t.Fatalf("second steal = %v, want seq 1", in)
	}
	if in := s.StealBest(0); in != nil {
		t.Fatalf("third steal = %v, want nil (only own queue has work)", in)
	}
	if s.Total() != 1 {
		t.Fatalf("total = %d, want 1", s.Total())
	}
}

// TestSetFindPopWhere checks the migratable-task picker scans whole
// queues, not just heads: the best matching task may sit below a
// non-matching one.
func TestSetFindPopWhere(t *testing.T) {
	s := NewSet(2, PriorityOrder, PerWorkerSteal, nil, nil)
	s.Push(inst(9, 0)) // q0 head, not migratable below
	s.Push(inst(5, 2)) // q0, under the head
	s.Push(inst(1, 3)) // q1
	mig := func(in *ptg.Instance) bool { return in.Seq != 0 }
	if in := s.FindWhere(mig); in == nil || in.Seq != 2 {
		t.Fatalf("FindWhere = %v, want seq 2 (best matching, below a head)", in)
	}
	if s.Total() != 3 {
		t.Fatalf("FindWhere must not remove; total = %d", s.Total())
	}
	if in := s.PopWhere(mig); in == nil || in.Seq != 2 {
		t.Fatalf("PopWhere = %v, want seq 2", in)
	}
	if in := s.PopWhere(mig); in == nil || in.Seq != 3 {
		t.Fatalf("second PopWhere = %v, want seq 3", in)
	}
	if in := s.PopWhere(mig); in != nil {
		t.Fatalf("third PopWhere = %v, want nil", in)
	}
	if in := s.Pop(0); in == nil || in.Seq != 0 {
		t.Fatalf("remaining pop = %v, want seq 0", in)
	}
}

// scriptClock is a settable clock for tests.
type scriptClock struct{ t int64 }

func (c *scriptClock) Now() int64 { return c.t }

// TestSetObserverEvents checks every queue transition emits one event
// with the op, the acting worker, the queue, the set-wide total, and
// the clock's timestamp.
func TestSetObserverEvents(t *testing.T) {
	clock := &scriptClock{}
	var got []Event
	s := NewSet(2, PriorityOrder, PerWorkerSteal, clock.Now, func(e Event) { got = append(got, e) })
	clock.t = 10
	s.Push(inst(1, 0))
	s.Push(inst(2, 1))
	clock.t = 20
	s.Pop(0)
	clock.t = 30
	s.StealBest(0)
	want := []struct {
		op     Op
		worker int
		queue  int
		seq    int
		total  int
		ts     int64
	}{
		{OpEnqueue, -1, 0, 0, 1, 10},
		{OpEnqueue, -1, 1, 1, 2, 10},
		{OpPop, 0, 0, 0, 1, 20},
		{OpSteal, 0, 1, 1, 0, 30},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i, w := range want {
		e := got[i]
		if e.Op != w.op || e.Worker != w.worker || e.Queue != w.queue ||
			e.Inst.Seq != w.seq || e.Total != w.total || e.Ts != w.ts {
			t.Errorf("event %d = {%v w%d q%d seq%d total%d ts%d}, want {%v w%d q%d seq%d total%d ts%d}",
				i, e.Op, e.Worker, e.Queue, e.Inst.Seq, e.Total, e.Ts,
				w.op, w.worker, w.queue, w.seq, w.total, w.ts)
		}
	}
}

// TestRNGGolden pins the per-worker xorshift streams to the values the
// sharded runtime has produced since PR 1, so historical schedules stay
// reproducible across refactors.
func TestRNGGolden(t *testing.T) {
	golden := map[int][]uint64{
		0: {0x40822041, 0x100041060c011441, 0x9b1e842f6e862629, 0xf554f503555d8025},
		1: {0xdc1b77aeca752d6e, 0x54f02db3166f5cb4, 0xd624c3e45e182f0d, 0xbfaad22bed687c13},
		2: {0xb836ef5c5764bb1b, 0xdbe19c7408ddd4ad, 0x6f15190ca5a4e444, 0x04ea761f30463c8c},
	}
	for w, want := range golden {
		rng := NewRNG(w)
		for i, x := range want {
			if got := rng.Next(); got != x {
				t.Errorf("worker %d draw %d = %#x, want %#x", w, i, got, x)
			}
		}
	}
}

// TestEachVictimProbeOrder checks the randomized probe: one draw picks
// the start, probing proceeds cyclically skipping the thief, and the
// walk stops at the first successful visit.
func TestEachVictimProbeOrder(t *testing.T) {
	// Worker 1's first three draws mod 4 are 2, 0, 1 (see TestRNGGolden).
	rng := NewRNG(1)
	var order []int
	if found := EachVictim(&rng, 1, 4, func(v int) bool {
		order = append(order, v)
		return false
	}); found {
		t.Fatal("EachVictim reported success with no successful visit")
	}
	if want := []int{2, 3, 0}; !equalInts(order, want) {
		t.Fatalf("probe order = %v, want %v (start 2, cyclic, skip self)", order, want)
	}
	// Second walk starts at 0; stopping at the first visit must report
	// success and visit nothing further.
	order = order[:0]
	if found := EachVictim(&rng, 1, 4, func(v int) bool {
		order = append(order, v)
		return true
	}); !found {
		t.Fatal("EachVictim did not report the successful visit")
	}
	if want := []int{0}; !equalInts(order, want) {
		t.Fatalf("early-stop probe order = %v, want %v", order, want)
	}
}

// TestEachVictimSoloWorker checks a lone worker draws nothing: there is
// no victim to probe, so the stream must not advance.
func TestEachVictimSoloWorker(t *testing.T) {
	rng := NewRNG(0)
	before := rng
	if EachVictim(&rng, 0, 1, func(int) bool { t.Fatal("visited a victim with n=1"); return true }) {
		t.Fatal("EachVictim reported success with n=1")
	}
	if rng != before {
		t.Fatal("EachVictim advanced the rng stream with no victims to probe")
	}
}

// TestEnumStrings pins the names the CLI tables and flags render.
func TestEnumStrings(t *testing.T) {
	if PriorityOrder.String() != "priority" || LIFOOrder.String() != "lifo" {
		t.Errorf("Policy strings = %q, %q", PriorityOrder.String(), LIFOOrder.String())
	}
	if SharedQueue.String() != "shared" || PerWorker.String() != "pinned" || PerWorkerSteal.String() != "pinned-steal" {
		t.Errorf("QueueMode strings = %q, %q, %q",
			SharedQueue.String(), PerWorker.String(), PerWorkerSteal.String())
	}
	if OpEnqueue.String() != "enqueue" || OpPop.String() != "pop" || OpSteal.String() != "steal" {
		t.Errorf("Op strings = %q, %q, %q", OpEnqueue.String(), OpPop.String(), OpSteal.String())
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
