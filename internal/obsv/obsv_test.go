package obsv

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"parsec/internal/ptg"
	"parsec/internal/trace"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for _, v := range []int64{100, 200, 400, 800, 1600} {
		h.Add(v)
	}
	if h.Count != 5 || h.Min != 100 || h.Max != 1600 || h.Sum != 3100 {
		t.Fatalf("count/min/max/sum = %d/%d/%d/%d", h.Count, h.Min, h.Max, h.Sum)
	}
	if h.Mean() != 620 {
		t.Fatalf("mean = %d", h.Mean())
	}
	// Quantiles are bucket estimates; they must be ordered and bounded.
	p50, p95 := h.Quantile(0.5), h.Quantile(0.95)
	if p50 < h.Min || p95 > h.Max || p50 > p95 {
		t.Fatalf("quantiles out of order: p50=%d p95=%d", p50, p95)
	}
	if h.Quantile(1) != h.Max || h.Quantile(0) != h.Min {
		t.Fatal("q=0/1 must clamp to min/max")
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Add(0)
	h.Add(-5) // clamps to 0
	h.Add(1)
	if h.Count != 3 || h.Min != 0 || h.Max != 1 {
		t.Fatalf("count/min/max = %d/%d/%d", h.Count, h.Min, h.Max)
	}
	if q := h.Quantile(0.5); q < 0 || q > 1 {
		t.Fatalf("p50 = %d, want within [0,1]", q)
	}
	if h.buckets[bucketOf(0)] != 2 || h.buckets[bucketOf(1)] != 1 || bucketOf(0) == bucketOf(1) {
		t.Fatalf("buckets of 0 and 1 = %d and %d, want 2 ([0,1)) and 1 ([1,2))", h.buckets[bucketOf(0)], h.buckets[bucketOf(1)])
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Log-bucketed estimates must stay within a factor of 2 of the true
	// quantile for a uniform stream (bucket width is the error bound).
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Add(v)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.95, 950}, {0.99, 990}} {
		got := h.Quantile(tc.q)
		if got < tc.want/2 || got > tc.want*2 {
			t.Errorf("q=%.2f: got %d, want within 2x of %d", tc.q, got, tc.want)
		}
	}
}

// fromTrace is the reference FromSpans is held to: the fold of a
// labelled trace that built every profile before executors recorded
// spans. It walks the events sorted by (node, thread, start), takes the
// class from each event's label, and keys histograms by class name.
func fromTrace(name string, t *trace.Trace) *Profile {
	p := &Profile{Name: name}
	evs := t.Events()
	start, end := t.Span()
	p.Span = end - start
	p.Tasks = int64(len(evs))

	hists := make(map[string]*Histogram)
	var classes []string
	for _, e := range evs {
		h := hists[e.Class]
		if h == nil {
			h = &Histogram{}
			hists[e.Class] = h
			classes = append(classes, e.Class)
		}
		h.Add(e.Duration())
	}
	sort.Strings(classes)
	for _, class := range classes {
		p.Classes = append(p.Classes, hists[class].profile(class))
	}

	w := rowWalk{p: p, start: start, end: end}
	for i := range evs {
		e := &evs[i]
		w.add(e.Node, e.Thread, e.Start, e.End)
	}
	w.finish()
	return p
}

// setRampRef is the reference SetRamp is held to: per (node, thread)
// row of the sorted events, the time from the trace's first start to
// the row's first event of the class; mean and max over the rows that
// have one.
func setRampRef(p *Profile, class string, t *trace.Trace) {
	start, _ := t.Span()
	type row struct{ node, thread int }
	seen := map[row]bool{}
	var total, n, maxD int64
	for _, e := range t.Events() {
		if r := (row{e.Node, e.Thread}); e.Class == class && !seen[r] {
			seen[r] = true
			d := e.Start - start
			total, n, maxD = total+d, n+1, max(maxD, d)
		}
	}
	r := &RampStat{Class: class, Max: maxD}
	if n > 0 {
		r.Mean = total / n
	}
	if p.Span > 0 {
		r.MeanFrac = float64(r.Mean) / float64(p.Span)
		r.MaxFrac = float64(r.Max) / float64(p.Span)
	}
	p.Ramp = r
}

// rec is one recorded task of a test run: where, which class, when.
type rec struct {
	node, thread int
	class        string
	start, end   int64
}

// recorded returns rs as an executor records them: each span is the
// next instance of its class in a skeleton made for rs, and each node's
// spans are grouped by worker in start order.
func recorded(t testing.TB, rs ...rec) ([][]trace.Span, *ptg.Skeleton) {
	t.Helper()
	g := ptg.NewGraph("recs")
	count := map[string]int{}
	for _, r := range rs {
		if count[r.class]++; count[r.class] == 1 {
			g.Class(r.class)
		}
	}
	for _, tc := range g.Classes() {
		n := count[tc.Name]
		tc.Domain = func(emit func(ptg.Args)) {
			for k := 0; k < n; k++ {
				emit(ptg.A1(k))
			}
		}
	}
	sk, err := ptg.NewSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	next := map[string]int{} // the Seq of each class's next instance
	for seq := sk.NumInstances() - 1; seq >= 0; seq-- {
		ref, _ := sk.Ref(seq)
		next[ref.Class] = seq
	}
	var byNode [][]trace.Span
	for _, r := range rs {
		for len(byNode) <= r.node {
			byNode = append(byNode, nil)
		}
		byNode[r.node] = append(byNode[r.node], trace.Span{Seq: uint32(next[r.class]), Worker: uint32(r.thread), Start: r.start, End: r.end})
		next[r.class]++
	}
	for _, spans := range byNode {
		slices.SortStableFunc(spans, func(a, b trace.Span) int {
			return cmp.Or(cmp.Compare(a.Worker, b.Worker), cmp.Compare(a.Start, b.Start))
		})
	}
	return byNode, sk
}

// profileOf is FromSpans over rs, with the ramp of class attached.
func profileOf(t testing.TB, name, class string, rs ...rec) *Profile {
	byNode, sk := recorded(t, rs...)
	p := FromSpans(name, byNode, sk)
	p.SetRamp(class, byNode, sk)
	return p
}

// The hand-checked runs below; the property test also holds each to
// the reference.
var (
	singleEvent  = []rec{{0, 0, "GEMM", 10, 30}}
	zeroDuration = []rec{{0, 0, "NXTVAL", 5, 5}, {0, 0, "GEMM", 5, 15}}
	// Worker n0/t0: busy [0,10), idle [10,40), busy [40,50).
	// Worker n0/t1: idle [0,30) (startup bubble), busy [30,50).
	idleGaps = []rec{{0, 0, "A", 0, 10}, {0, 0, "A", 40, 50}, {0, 1, "A", 30, 50}}
	// t0 spans the whole run; t1 finishes early — its tail gap is the
	// longest bubble.
	tailIdle = []rec{{0, 0, "A", 0, 100}, {0, 1, "A", 0, 20}}
	// t0's first GEMM starts at 10, t1's at 40; the span is [0, 100].
	ramp = []rec{{0, 0, "READ", 0, 10}, {0, 0, "GEMM", 10, 100}, {0, 1, "READ", 0, 40}, {0, 1, "GEMM", 40, 100}}
	// Workers with GEMMs: (0,0) at 100, (0,1) at 300; node 1 has none.
	rampOverNodes = []rec{{0, 0, "READA", 0, 50}, {0, 0, "GEMM", 100, 200}, {0, 1, "GEMM", 300, 400}, {1, 0, "READA", 0, 10}}
	handBuilt     = [][]rec{nil, singleEvent, zeroDuration, idleGaps, tailIdle, ramp, rampOverNodes}
)

func TestFromTraceEmpty(t *testing.T) {
	p := FromSpans("empty", nil, nil)
	if p.Span != 0 || p.Tasks != 0 || len(p.Classes) != 0 || len(p.Workers) != 0 {
		t.Fatalf("empty profile not empty: %+v", p)
	}
	if p.Idle.MaxBubble != 0 || p.Idle.MeanIdleFrac != 0 {
		t.Fatal("empty profile must have zero idle summary")
	}
}

func TestFromTraceSingleEvent(t *testing.T) {
	p := profileOf(t, "one", "GEMM", singleEvent...)
	if p.Span != 20 || p.Tasks != 1 {
		t.Fatalf("span=%d tasks=%d", p.Span, p.Tasks)
	}
	w := p.Workers[0]
	if w.Busy != 20 || w.Idle != 0 || w.StartupIdle != 0 || w.LongestBubble != 0 {
		t.Fatalf("single-event worker: %+v", w)
	}
}

func TestFromTraceZeroDurationSpans(t *testing.T) {
	p := profileOf(t, "zero", "GEMM", zeroDuration...)
	if p.Span != 10 {
		t.Fatalf("span = %d", p.Span)
	}
	var nx ClassProfile
	for _, c := range p.Classes {
		if c.Class == "NXTVAL" {
			nx = c
		}
	}
	if nx.Count != 1 || nx.Max != 0 || nx.Total != 0 {
		t.Fatalf("zero-duration class: %+v", nx)
	}
}

func TestFromTraceIdleGaps(t *testing.T) {
	p := profileOf(t, "gaps", "A", idleGaps...)
	if len(p.Workers) != 2 {
		t.Fatalf("workers = %d", len(p.Workers))
	}
	w0, w1 := p.Workers[0], p.Workers[1]
	if w0.Idle != 30 || w0.LongestBubble != 30 || w0.BubbleStart != 10 || w0.StartupIdle != 0 {
		t.Fatalf("w0: %+v", w0)
	}
	if w1.Idle != 30 || w1.LongestBubble != 30 || w1.BubbleStart != 0 || w1.StartupIdle != 30 {
		t.Fatalf("w1: %+v", w1)
	}
	if p.Idle.TotalIdle != 60 || p.Idle.MaxBubble != 30 {
		t.Fatalf("summary: %+v", p.Idle)
	}
	if math.Abs(p.Idle.MeanIdleFrac-0.6) > 1e-12 {
		t.Fatalf("mean idle frac = %g, want 0.6", p.Idle.MeanIdleFrac)
	}
	if p.Idle.MeanStartup != 15 {
		t.Fatalf("mean startup = %d, want 15", p.Idle.MeanStartup)
	}
}

func TestFromTraceTailIdleCounts(t *testing.T) {
	p := profileOf(t, "tail", "A", tailIdle...)
	w1 := p.Workers[1]
	if w1.Idle != 80 || w1.LongestBubble != 80 || w1.BubbleStart != 20 {
		t.Fatalf("tail idle: %+v", w1)
	}
}

// Property: on arbitrary non-overlapping rows, FromSpans's busy time is
// the sum of the span durations, per class and per worker alike, every
// worker's busy and idle time cover the span exactly, and the mean idle
// fraction lies in [0, 1].
func TestPropertyFromTraceBusy(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 || len(durs) > 64 {
			return true
		}
		var rs []rec
		var cursor, want int64
		for i, d := range durs {
			dur := int64(d) + 1
			rs = append(rs, rec{0, i % 4, []string{"GEMM", "SORT"}[i%3%2], cursor, cursor + dur})
			cursor += dur + 10
			want += dur
		}
		byNode, sk := recorded(t, rs...)
		p := FromSpans("prop", byNode, sk)
		var byClass, byWorker int64
		for _, c := range p.Classes {
			byClass += c.Total
		}
		for _, w := range p.Workers {
			byWorker += w.Busy
			if w.Busy+w.Idle != p.Span {
				return false
			}
		}
		return byClass == want && byWorker == want && p.Idle.MeanIdleFrac >= 0 && p.Idle.MeanIdleFrac <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestFromSpansMatchesReference holds FromSpans and SetRamp to the
// reference fold of the labelled trace of the same spans, field for
// field, on the hand-checked runs above and on seeded random ones:
// 1-3 nodes, some of them empty, 1-4 workers with some idle, idle gaps
// and zero-length spans, Seqs the skeleton does not describe, and no
// skeleton at all.
func TestFromSpansMatchesReference(t *testing.T) {
	check := func(t *testing.T, what string, byNode [][]trace.Span, sk *ptg.Skeleton, class string) {
		t.Helper()
		got := FromSpans(what, byNode, sk)
		got.SetRamp(class, byNode, sk)
		tr := trace.New()
		for node, spans := range byNode {
			tr.AddSpans(node, spans, sk)
		}
		want := fromTrace(what, tr)
		setRampRef(want, class, tr)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: FromSpans\n%+v\nreference\n%+v", what, got, want)
		}
	}
	for i, rs := range handBuilt {
		byNode, sk := recorded(t, rs...)
		for _, class := range []string{"GEMM", "A", "NOPE"} {
			check(t, fmt.Sprintf("hand-built %d, ramp of %s", i, class), byNode, sk, class)
		}
	}
	rng := rand.New(rand.NewSource(1))
	classes := []string{"READA", "GEMM", "SORT", "WRITE"}
	for iter := 0; iter < 400; iter++ {
		// A skeleton of up to four classes, some of them empty, and
		// Seqs up to a few past its last instance.
		g := ptg.NewGraph("random")
		for _, c := range classes[:1+rng.Intn(len(classes))] {
			n := rng.Intn(6)
			g.Class(c).Domain = func(emit func(ptg.Args)) {
				for k := 0; k < n; k++ {
					emit(ptg.A1(k))
				}
			}
		}
		sk, err := ptg.NewSkeleton(g)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(8) == 0 {
			sk = nil
		}
		seqs := 3
		if sk != nil {
			seqs += sk.NumInstances()
		}
		byNode := make([][]trace.Span, 1+rng.Intn(3))
		for node := range byNode {
			if rng.Intn(4) == 0 {
				continue // a node that ran nothing
			}
			for w := 0; w < 1+rng.Intn(4); w++ {
				cursor := int64(rng.Intn(50))
				for k := rng.Intn(6); k > 0; k-- {
					start := cursor + int64(rng.Intn(3)*rng.Intn(40)) // often no gap
					end := start + int64(rng.Intn(3)*rng.Intn(100))   // often zero-length
					byNode[node] = append(byNode[node], trace.Span{Seq: uint32(rng.Intn(seqs)), Worker: uint32(w), Start: start, End: end})
					cursor = end
				}
			}
		}
		class := append(classes, "task", "NOPE")[rng.Intn(len(classes)+2)]
		check(t, fmt.Sprintf("random %d, ramp of %s", iter, class), byNode, sk, class)
	}
}

func TestWorstWorkers(t *testing.T) {
	var rs []rec
	for i := 0; i < 4; i++ {
		rs = append(rs, rec{0, i, "A", int64(i * 10), 100})
	}
	p := profileOf(t, "worst", "A", rs...)
	worst := p.WorstWorkers(2)
	if len(worst) != 2 || worst[0].Thread != 3 || worst[1].Thread != 2 {
		t.Fatalf("worst = %+v", worst)
	}
}

func TestSetCriticalAttribution(t *testing.T) {
	a := ptg.Analysis{
		TotalWork:    100,
		CriticalPath: 40,
		MaxSpeedup:   2.5,
		Path: []ptg.TaskRef{
			{Class: "READ", Args: ptg.Args{0, 0, 0}},
			{Class: "GEMM", Args: ptg.Args{0, 0, 0}},
			{Class: "GEMM", Args: ptg.Args{1, 0, 0}},
			{Class: "WRITE", Args: ptg.Args{0, 0, 0}},
		},
		PathDur: []int64{4, 16, 16, 4},
	}
	var p Profile
	p.SetCritical(a)
	if p.Crit.Length != 40 || p.Crit.Tasks != 4 {
		t.Fatalf("crit: %+v", p.Crit)
	}
	if p.Crit.Shares[0].Class != "GEMM" || p.Crit.Shares[0].Tasks != 2 || p.Crit.Shares[0].Time != 32 {
		t.Fatalf("top share: %+v", p.Crit.Shares[0])
	}
	if math.Abs(p.Crit.Shares[0].Frac-0.8) > 1e-12 {
		t.Fatalf("GEMM frac = %g, want 0.8", p.Crit.Shares[0].Frac)
	}
	var sum float64
	for _, s := range p.Crit.Shares {
		sum += s.Frac
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %g, want 1", sum)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	p := profileOf(t, "rt", "GEMM", rec{0, 0, "GEMM", 0, 10})
	p.SetComm(CommStats{GetOps: 3, GetBytes: 300, AccOps: 1, AccBytes: 100})
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Profile{p}); err != nil {
		t.Fatal(err)
	}
	var back []Profile
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("exported JSON does not parse: %v", err)
	}
	if len(back) != 1 || back[0].Name != "rt" || back[0].Comm.GetBytes != 300 {
		t.Fatalf("round trip: %+v", back)
	}
}

func TestSetRamp(t *testing.T) {
	p := profileOf(t, "ramp", "GEMM", ramp...)
	if p.Ramp.Mean != 25 || p.Ramp.Max != 40 {
		t.Fatalf("ramp = %+v", p.Ramp)
	}
	if math.Abs(p.Ramp.MaxFrac-0.4) > 1e-12 {
		t.Fatalf("max frac = %g, want 0.4", p.Ramp.MaxFrac)
	}
	if p.Ramp.Class != "GEMM" {
		t.Fatalf("ramp class = %q", p.Ramp.Class)
	}
}

// TestRampStats: the ramp spans nodes and counts only the workers that
// ran the class; a class nobody ran gives a zero ramp.
func TestRampStats(t *testing.T) {
	// Workers with GEMMs: (0,0) at 100, (0,1) at 300 -> mean 200, max 300.
	if r := profileOf(t, "nodes", "GEMM", rampOverNodes...).Ramp; r.Mean != 200 || r.Max != 300 {
		t.Errorf("ramp over nodes = (%d, %d), want (200, 300)", r.Mean, r.Max)
	}
	if r := profileOf(t, "none", "NOPE", rampOverNodes...).Ramp; r.Mean != 0 || r.Max != 0 || r.Class != "NOPE" {
		t.Errorf("ramp of a class nobody ran = %+v", r)
	}
}

// TestSingleInstantTraceNoNaN is the zero-span regression: a run whose
// only span is instantaneous gives Span == 0, and every derived
// fraction (idle, ramp, slowdown) must stay finite so WriteJSON — which
// rejects NaN/Inf outright — still succeeds with all sections attached.
func TestSingleInstantTraceNoNaN(t *testing.T) {
	p := profileOf(t, "instant", "NXTVAL", rec{0, 0, "NXTVAL", 7, 7})
	if p.Span != 0 || p.Tasks != 1 {
		t.Fatalf("span=%d tasks=%d, want 0/1", p.Span, p.Tasks)
	}
	p.SetCritical(ptg.Analysis{})
	p.SetComm(CommStats{})
	p.SetRecovery(Recovery{})
	p.SetSlowdown(0, []SlowdownCause{{Cause: "straggler n0", Time: 5}})
	if p.Idle.MeanIdleFrac != 0 || p.Ramp.MeanFrac != 0 || p.Ramp.MaxFrac != 0 {
		t.Fatalf("zero-span fractions leaked: idle=%g ramp=%g/%g",
			p.Idle.MeanIdleFrac, p.Ramp.MeanFrac, p.Ramp.MaxFrac)
	}
	// Zero loss: the cause keeps its charge but gets no fraction.
	if got := p.Slow.Causes[0].Frac; got != 0 {
		t.Fatalf("frac with zero loss = %g, want 0", got)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Profile{p}); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if bytes.Contains(buf.Bytes(), []byte("NaN")) || bytes.Contains(buf.Bytes(), []byte("Inf")) {
		t.Fatalf("JSON carries non-finite values:\n%s", buf.Bytes())
	}
}

// TestEmptyTraceJSON: a profile of a run with no spans at all must
// export cleanly too.
func TestEmptyTraceJSON(t *testing.T) {
	p := FromSpans("empty", nil, nil)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Profile{p}); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back []Profile
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(back) != 1 || back[0].Span != 0 {
		t.Fatalf("round trip = %+v", back)
	}
}

// TestSetSlowdownAttribution: causes come back largest first with
// fractions of the observed loss; zero-time causes are dropped.
func TestSetSlowdownAttribution(t *testing.T) {
	p := &Profile{Name: "perturbed", Span: 1500}
	p.SetSlowdown(1000, []SlowdownCause{
		{Cause: "xfer backoff", Time: 100},
		{Cause: "ga hiccups", Time: 0},
		{Cause: "straggler n2", Time: 400},
	})
	s := p.Slow
	if s.BaselineSpan != 1000 || s.Loss != 500 {
		t.Fatalf("baseline=%d loss=%d", s.BaselineSpan, s.Loss)
	}
	if len(s.Causes) != 2 || s.Causes[0].Cause != "straggler n2" {
		t.Fatalf("causes = %+v", s.Causes)
	}
	if math.Abs(s.Causes[0].Frac-0.8) > 1e-12 || math.Abs(s.Causes[1].Frac-0.2) > 1e-12 {
		t.Fatalf("fracs = %g/%g, want 0.8/0.2", s.Causes[0].Frac, s.Causes[1].Frac)
	}
}

// TestSetRecoveryReport: recovery counters are part of the profile (and
// so of its report) only when attached.
func TestSetRecoveryReport(t *testing.T) {
	p := &Profile{Name: "clean", Span: 100}
	if p.Recov != nil {
		t.Fatal("profile grew a recovery section without SetRecovery")
	}
	want := Recovery{Retries: 3, DupSuppressed: 1, RetransmitBytes: 2_000_000}
	p.SetRecovery(want)
	if rc := p.Recov; rc == nil || *rc != want {
		t.Fatalf("profile recovery = %+v, want %+v", rc, want)
	}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p, 0); err != nil {
		t.Fatal(err)
	}
	if line := "retries 3, 1 duplicates suppressed, retransmitted 2.00MB\n"; !bytes.Contains(buf.Bytes(), []byte(line)) {
		t.Errorf("report missing %q:\n%s", line, buf.String())
	}
}
