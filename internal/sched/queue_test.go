package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"parsec/internal/ptg"
)

// refQueue is the specification a Queue is checked against: one slice,
// kept in Before order (or, for the stack discipline, in push order),
// with no run, cursor or heap to get wrong.
type refQueue struct {
	lifo  bool
	items []*ptg.Instance
}

func (r *refQueue) push(in *ptg.Instance) {
	k := len(r.items)
	if !r.lifo {
		k = sort.Search(len(r.items), func(k int) bool { return Before(in, r.items[k]) })
	}
	r.items = append(r.items, nil)
	copy(r.items[k+1:], r.items[k:])
	r.items[k] = in
}

// preload is what Preload stands for: on a stack the run's tasks pushed
// in creation order, otherwise just the tasks enqueued.
func (r *refQueue) preload(run []*ptg.Instance) {
	run = append([]*ptg.Instance(nil), run...)
	if r.lifo {
		sort.Slice(run, func(i, j int) bool { return run[i].Seq < run[j].Seq })
	}
	for _, in := range run {
		r.push(in)
	}
}

// head is the index Pop serves.
func (r *refQueue) head() int {
	if r.lifo {
		return len(r.items) - 1
	}
	return 0
}

func (r *refQueue) removeAt(k int) *ptg.Instance {
	in := r.items[k]
	r.items = append(r.items[:k], r.items[k+1:]...)
	return in
}

// TestQueueMatchesSortedReference drives every Policy×QueueMode queue
// through random interleavings of Preload, Push, Pop, Peek and PopsNext
// beside the reference: the same task must come out of every Pop, and
// Len must agree throughout — the run/heap merge is invisible. Preloads land on empty queues, on
// queues holding pushed tasks, and on queues whose earlier run is only
// half consumed.
func TestQueueMatchesSortedReference(t *testing.T) {
	for _, pol := range []Policy{PriorityOrder, LIFOOrder} {
		for _, mode := range []QueueMode{SharedQueue, PerWorker, PerWorkerSteal} {
			t.Run(fmt.Sprintf("%v/%v", pol, mode), func(t *testing.T) {
				for seed := int64(1); seed <= 20; seed++ {
					checkQueueAgainstReference(t, pol, mode, seed)
				}
			})
		}
	}
}

func checkQueueAgainstReference(t *testing.T, pol Policy, mode QueueMode, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	q := NewQueue(pol, mode)
	ref := &refQueue{lifo: pol == LIFOOrder && mode == SharedQueue}
	seq := 0
	fresh := func() *ptg.Instance {
		seq++
		return inst(int64(rng.Intn(6)), seq)
	}
	check := func(op string, got, want *ptg.Instance) {
		t.Helper()
		if got != want {
			t.Fatalf("seed %d, %s: got %v, reference has %v", seed, op, got, want)
		}
		if q.Len() != len(ref.items) {
			t.Fatalf("seed %d, after %s: Len = %d, reference holds %d", seed, op, q.Len(), len(ref.items))
		}
	}
	pop := func() {
		var want *ptg.Instance
		if len(ref.items) > 0 {
			want = ref.removeAt(ref.head())
		}
		got, left := q.Pop()
		check("Pop", got, want)
		if left != len(ref.items) {
			t.Fatalf("seed %d: Pop reports %d left, reference holds %d", seed, left, len(ref.items))
		}
	}
	for op := 0; op < 600; op++ {
		switch r := rng.Intn(17); {
		case r == 0: // a sorted run, sometimes empty
			run := make([]*ptg.Instance, rng.Intn(40))
			for i := range run {
				run[i] = fresh()
			}
			sort.Slice(run, func(i, j int) bool { return Before(run[i], run[j]) })
			ref.preload(run)
			if depth := q.Preload(run); depth != len(ref.items) {
				t.Fatalf("seed %d: Preload reports depth %d, reference holds %d", seed, depth, len(ref.items))
			}
		case r < 7:
			in := fresh()
			next := ref.lifo || len(ref.items) == 0 || Before(in, ref.items[0])
			if got := q.PopsNext(in); got != next {
				t.Fatalf("seed %d: PopsNext(%v) = %v with head %v", seed, in, got, q.Peek())
			}
			ref.push(in)
			if depth := q.Push(in); depth != len(ref.items) {
				t.Fatalf("seed %d: Push reports depth %d, reference holds %d", seed, depth, len(ref.items))
			}
		case r < 14:
			pop()
		default:
			var want *ptg.Instance
			if len(ref.items) > 0 {
				want = ref.items[ref.head()]
			}
			check("Peek", q.Peek(), want)
		}
	}
	for len(ref.items) > 0 {
		pop()
	}
	pop() // empty: (nil, 0)
}

// TestSetPreloadMatchesPushAll is Set.Preload's contract: adopting a
// Before-sorted run is pushing every task of it. For every
// Policy×QueueMode set, one set preloads the sorted run and a twin
// pushes the same tasks in creation order, as executors did before
// runs were preloaded; both then go through the same random
// interleaving of Push, Pop and StealBest. Every take must hand out the
// same task, Total must agree after every op, and the observer must see
// exactly one OpEnqueue per preloaded task, on the queue the twin's push
// chose, with Total counting up from 1 — and a third set that pushes the
// tasks in the order those events report them, as a shadow replaying
// the decision stream does, must hand out the same tasks too.
func TestSetPreloadMatchesPushAll(t *testing.T) {
	const queues = 3
	for _, pol := range []Policy{PriorityOrder, LIFOOrder} {
		for _, mode := range []QueueMode{SharedQueue, PerWorker, PerWorkerSteal} {
			t.Run(fmt.Sprintf("%v/%v", pol, mode), func(t *testing.T) {
				for seed := int64(1); seed <= 20; seed++ {
					rng := rand.New(rand.NewSource(seed))
					var evA, evB []Event
					a := NewSet(queues, pol, mode, nil, func(e Event) { evA = append(evA, e) })
					b := NewSet(queues, pol, mode, nil, func(e Event) { evB = append(evB, e) })
					created := make([]*ptg.Instance, rng.Intn(60))
					for i := range created {
						created[i] = inst(int64(rng.Intn(5)), i)
					}
					run := append([]*ptg.Instance(nil), created...)
					sort.Slice(run, func(i, j int) bool { return Before(run[i], run[j]) })
					a.Preload(run)
					for _, in := range created {
						b.Push(in)
					}
					if len(evA) != len(created) || a.Total() != b.Total() {
						t.Fatalf("seed %d: preload of %d tasks reported %d enqueues, Total %d vs %d",
							seed, len(created), len(evA), a.Total(), b.Total())
					}
					c := NewSet(queues, pol, mode, nil, nil)
					seen := make(map[*ptg.Instance]bool)
					for k, e := range evA {
						c.Push(e.Inst)
						if e.Op != OpEnqueue || e.Worker != -1 || e.Total != k+1 || seen[e.Inst] || e.Queue != b.Home(e.Inst) {
							t.Fatalf("seed %d: preload event %d = %+v", seed, k, e)
						}
						seen[e.Inst] = true
					}
					for q := 0; q < a.Queues(); q++ {
						if a.Len(q) != b.Len(q) {
							t.Fatalf("seed %d: queue %d holds %d preloaded, %d pushed", seed, q, a.Len(q), b.Len(q))
						}
					}
					evA, evB = evA[:0], evB[:0]
					next := len(created)
					for op := 0; op < 200 || a.Total() > 0; op++ {
						wid := rng.Intn(queues)
						var ga, gb, gc *ptg.Instance
						switch r := rng.Intn(10); {
						case r < 3 && op < 200:
							in := inst(int64(rng.Intn(5)), next)
							next++
							a.Push(in)
							b.Push(in)
							c.Push(in)
						case r < 7:
							ga, gb, gc = a.Pop(wid), b.Pop(wid), c.Pop(wid)
						default:
							ga, gb, gc = a.StealBest(wid), b.StealBest(wid), c.StealBest(wid)
						}
						if gc != gb {
							t.Fatalf("seed %d, op %d: replaying the preload's enqueues gave %v, pushing gave %v", seed, op, gc, gb)
						}
						if ga != gb || a.Total() != b.Total() {
							t.Fatalf("seed %d, op %d: preloaded set gave %v (Total %d), pushed set %v (Total %d)",
								seed, op, ga, a.Total(), gb, b.Total())
						}
					}
					if !slices.Equal(evA, evB) {
						t.Fatalf("seed %d: decision streams differ after the preload:\n%v\n%v", seed, evA, evB)
					}
				}
			})
		}
	}
}
