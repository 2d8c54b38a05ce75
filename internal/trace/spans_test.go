package trace

import (
	"fmt"
	"testing"

	"parsec/internal/ptg"
)

// twoClassGraph has an empty class between two populated ones, so a
// Seq -> class lookup that mishandles a class without instances shows.
func twoClassGraph() *ptg.Graph {
	g := ptg.NewGraph("spans")
	a := g.Class("A")
	a.Domain = func(emit func(ptg.Args)) {
		for i := 0; i < 3; i++ {
			emit(ptg.A3(i, 2*i, 7))
		}
	}
	g.Class("EMPTY").Domain = func(func(ptg.Args)) {}
	b := g.Class("B")
	b.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(5)); emit(ptg.A1(6)) }
	return g
}

// TestAddSpansLabels: every materialised event carries its span's node,
// lane, Seq and times, and the class and label of the instance with
// that Seq — insts[Seq].Ref.Class and .String(), what an Observer-built
// trace carried — whatever order the spans come in; a Seq the skeleton
// does not describe still renders, as "#seq".
func TestAddSpansLabels(t *testing.T) {
	g := twoClassGraph()
	tracker, err := ptg.NewTracker(g)
	if err != nil {
		t.Fatal(err)
	}
	insts := tracker.Instances()
	sk, err := g.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	var spans []Span
	for i := len(insts) - 1; i >= 0; i-- {
		spans = append(spans, Span{Seq: uint32(insts[i].Seq), Worker: uint32(i % 2), Start: int64(10 * i), End: int64(10*i + 7)})
	}
	unknown := uint32(len(insts))
	spans = append(spans, Span{Seq: unknown, Worker: 1, Start: 900, End: 901})

	tr := New()
	tr.AddSpans(3, spans, sk)
	if tr.Len() != len(spans) {
		t.Fatalf("%d events from %d spans", tr.Len(), len(spans))
	}
	seen := 0
	for _, ev := range tr.Events() {
		wantClass, wantLabel := "task", fmt.Sprintf("#%d", unknown)
		if ev.Seq < len(insts) {
			wantClass, wantLabel = insts[ev.Seq].Ref.Class, insts[ev.Seq].Ref.String()
			seen++
		}
		if ev.Class != wantClass || ev.Label != wantLabel || ev.Node != 3 {
			t.Errorf("Seq %d materialised as node %d %q / %q, want node 3 %q / %q", ev.Seq, ev.Node, ev.Class, ev.Label, wantClass, wantLabel)
		}
	}
	if seen != len(insts) {
		t.Errorf("%d of %d instances materialised", seen, len(insts))
	}
	for i, sp := range spans {
		found := false
		for _, ev := range tr.Events() {
			found = found || (ev.Seq == int(sp.Seq) && ev.Thread == int(sp.Worker) && ev.Start == sp.Start && ev.End == sp.End)
		}
		if !found {
			t.Errorf("span %d %+v has no event", i, sp)
		}
	}

	// No table at all: every span is labelled by number.
	bare := New()
	bare.AddSpans(0, spans[:2], nil)
	for _, ev := range bare.Events() {
		if ev.Class != "task" || ev.Label != fmt.Sprintf("#%d", ev.Seq) {
			t.Errorf("without a skeleton Seq %d is %q / %q", ev.Seq, ev.Class, ev.Label)
		}
	}
}
