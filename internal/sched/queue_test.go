package sched

import (
	"fmt"
	"math/rand"
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

func (r *refQueue) bestWhere(ok func(*ptg.Instance) bool) (best *ptg.Instance, bk int) {
	bk = -1
	for k, in := range r.items {
		if ok(in) && (best == nil || Before(in, best)) {
			best, bk = in, k
		}
	}
	return best, bk
}

// TestQueueMatchesSortedReference drives every Policy×QueueMode queue
// through random interleavings of Preload, Push, Pop, Peek, PopsNext and
// FindWhere+RemoveAt beside the reference: the same task must come out
// of every Pop and every predicate take, and Len must agree throughout —
// the run/heap merge is invisible. Preloads land on empty queues, on
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
		switch r := rng.Intn(20); {
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
		case r < 17:
			var want *ptg.Instance
			if len(ref.items) > 0 {
				want = ref.items[ref.head()]
			}
			check("Peek", q.Peek(), want)
		default: // the inter-node steal's pick: best task of one residue class
			m := rng.Intn(3)
			ok := func(in *ptg.Instance) bool { return in.Seq%3 == m }
			want, k := ref.bestWhere(ok)
			got, i := q.FindWhere(ok)
			check("FindWhere", got, want)
			if want != nil {
				ref.removeAt(k)
				check("RemoveAt", q.RemoveAt(i), want)
			} else if i != -1 {
				t.Fatalf("seed %d: FindWhere found nothing at position %d", seed, i)
			}
		}
	}
	for len(ref.items) > 0 {
		pop()
	}
	pop() // empty: (nil, 0)
}
