// Package ptgtest holds test helpers shared by the packages that build
// ptg graphs (ccsd's recipes, the jdf compiler).
package ptgtest

import (
	"slices"
	"testing"

	"parsec/internal/ptg"
)

// instance is what an executor can observe of a freshly built instance.
type instance struct {
	ref      ptg.TaskRef
	node     int
	priority int64
	seq      int
	state    ptg.InstState
}

// delivery is one Delivery of a serial drive, by value.
type delivery struct {
	from, to         ptg.TaskRef
	fromFlow, toFlow int
	bytes            int64
}

// drive builds a tracker for g and completes every task serially in FIFO
// order from InitialReady, returning the initial instance table and
// every delivery in the order Complete reported it.
func drive(t testing.TB, g *ptg.Graph) ([]instance, []delivery) {
	t.Helper()
	tr, err := ptg.NewTracker(g)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	var insts []instance
	for _, in := range tr.Instances() {
		insts = append(insts, instance{in.Ref, in.Node, in.Priority, in.Seq, in.State})
	}
	var log []delivery
	var dels []ptg.Delivery
	queue := tr.InitialReady()
	for len(queue) > 0 {
		in := queue[0]
		queue = queue[1:]
		if err := tr.Start(in); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if dels, _, err = tr.Complete(in, dels[:0]); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		for _, d := range dels {
			log = append(log, delivery{d.From.Ref, d.To.Ref, d.FromFlow, d.ToFlow, d.Bytes})
			ready, err := tr.Deliver(d.To, d.ToFlow, nil)
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			if ready {
				queue = append(queue, d.To)
			}
		}
	}
	if err := tr.CheckQuiescent(); err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	return insts, log
}

// SameExecution fails t unless trackers of a and b describe the same
// execution: the same instances (ref, node, priority, seq, initial
// state) in the same order, the same deliveries in the same order with
// the same byte sizes when driven to completion serially, and equal
// graph signatures. It is how a skeleton-bound graph is checked against
// an unbound build of the same definition.
func SameExecution(t testing.TB, a, b *ptg.Graph) {
	t.Helper()
	ia, da := drive(t, a)
	ib, db := drive(t, b)
	if !slices.Equal(ia, ib) {
		t.Errorf("%s: instance tables differ (%d vs %d instances)", a.Name, len(ia), len(ib))
	}
	if !slices.Equal(da, db) {
		t.Errorf("%s: delivery sequences differ (%d vs %d deliveries)", a.Name, len(da), len(db))
	}
	sa, err := ptg.Signature(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ptg.Signature(b)
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Errorf("%s: signatures differ: %v vs %v", a.Name, sa, sb)
	}
}
