package obsv

import (
	"bytes"
	"encoding/json"
	"math"
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
	if got := len(h.Buckets()); got != 2 {
		t.Fatalf("non-empty buckets = %d, want 2 ([0,1) and [1,2))", got)
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

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Add(10)
	a.Add(20)
	b.Add(5)
	b.Add(40)
	a.Merge(&b)
	if a.Count != 4 || a.Min != 5 || a.Max != 40 || a.Sum != 75 {
		t.Fatalf("merged count/min/max/sum = %d/%d/%d/%d", a.Count, a.Min, a.Max, a.Sum)
	}
	var empty Histogram
	a.Merge(&empty) // no-op
	if a.Count != 4 {
		t.Fatal("merging an empty histogram changed the count")
	}
}

func TestFromTraceEmpty(t *testing.T) {
	p := FromTrace("empty", trace.New())
	if p.Span != 0 || p.Tasks != 0 || len(p.Classes) != 0 || len(p.Workers) != 0 {
		t.Fatalf("empty profile not empty: %+v", p)
	}
	if p.Idle.MaxBubble != 0 || p.Idle.MeanIdleFrac != 0 {
		t.Fatal("empty profile must have zero idle summary")
	}
}

func TestFromTraceSingleEvent(t *testing.T) {
	tr := trace.New()
	tr.Add(trace.Event{Node: 0, Thread: 0, Class: "GEMM", Label: "GEMM(0,0,0)", Start: 10, End: 30})
	p := FromTrace("one", tr)
	if p.Span != 20 || p.Tasks != 1 {
		t.Fatalf("span=%d tasks=%d", p.Span, p.Tasks)
	}
	w := p.Workers[0]
	if w.Busy != 20 || w.Idle != 0 || w.StartupIdle != 0 || w.LongestBubble != 0 {
		t.Fatalf("single-event worker: %+v", w)
	}
}

func TestFromTraceZeroDurationSpans(t *testing.T) {
	tr := trace.New()
	tr.Add(trace.Event{Node: 0, Thread: 0, Class: "NXTVAL", Start: 5, End: 5})
	tr.Add(trace.Event{Node: 0, Thread: 0, Class: "GEMM", Start: 5, End: 15})
	p := FromTrace("zero", tr)
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
	// Worker n0/t0: busy [0,10), idle [10,40), busy [40,50).
	// Worker n0/t1: idle [0,30) (startup bubble), busy [30,50).
	tr := trace.New()
	tr.Add(trace.Event{Node: 0, Thread: 0, Class: "A", Start: 0, End: 10})
	tr.Add(trace.Event{Node: 0, Thread: 0, Class: "A", Start: 40, End: 50})
	tr.Add(trace.Event{Node: 0, Thread: 1, Class: "A", Start: 30, End: 50})
	p := FromTrace("gaps", tr)
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
	// t0 spans the whole trace; t1 finishes early — its tail gap is the
	// longest bubble.
	tr := trace.New()
	tr.Add(trace.Event{Node: 0, Thread: 0, Class: "A", Start: 0, End: 100})
	tr.Add(trace.Event{Node: 0, Thread: 1, Class: "A", Start: 0, End: 20})
	p := FromTrace("tail", tr)
	w1 := p.Workers[1]
	if w1.Idle != 80 || w1.LongestBubble != 80 || w1.BubbleStart != 20 {
		t.Fatalf("tail idle: %+v", w1)
	}
}

// Property: on arbitrary non-overlapping rows, FromTrace's busy time is
// the sum of the event durations, per class and per worker alike, every
// worker's busy and idle time cover the span exactly, and the mean idle
// fraction lies in [0, 1].
func TestPropertyFromTraceBusy(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 || len(durs) > 64 {
			return true
		}
		tr := trace.New()
		var cursor, want int64
		for i, d := range durs {
			dur := int64(d) + 1
			tr.Add(trace.Event{Node: 0, Thread: i % 4, Class: []string{"GEMM", "SORT"}[i%3%2], Start: cursor, End: cursor + dur})
			cursor += dur + 10
			want += dur
		}
		if tr.Validate() != nil {
			return false
		}
		p := FromTrace("prop", tr)
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

func TestWorstWorkers(t *testing.T) {
	tr := trace.New()
	for i := 0; i < 4; i++ {
		tr.Add(trace.Event{Node: 0, Thread: i, Class: "A", Start: int64(i * 10), End: 100})
	}
	p := FromTrace("worst", tr)
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
	tr := trace.New()
	tr.Add(trace.Event{Node: 0, Thread: 0, Class: "GEMM", Start: 0, End: 10})
	p := FromTrace("rt", tr)
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
	// t0's first GEMM starts at 10, t1's at 40; span is [0, 100].
	tr := trace.New()
	tr.Add(trace.Event{Node: 0, Thread: 0, Class: "READ", Start: 0, End: 10})
	tr.Add(trace.Event{Node: 0, Thread: 0, Class: "GEMM", Start: 10, End: 100})
	tr.Add(trace.Event{Node: 0, Thread: 1, Class: "READ", Start: 0, End: 40})
	tr.Add(trace.Event{Node: 0, Thread: 1, Class: "GEMM", Start: 40, End: 100})
	p := FromTrace("ramp", tr)
	p.SetRamp("GEMM", tr)
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

// TestSingleInstantTraceNoNaN is the zero-span regression: a trace whose
// only event is instantaneous gives Span == 0, and every derived
// fraction (idle, ramp, slowdown) must stay finite so WriteJSON — which
// rejects NaN/Inf outright — still succeeds with all sections attached.
func TestSingleInstantTraceNoNaN(t *testing.T) {
	tr := trace.New()
	tr.Add(trace.Event{Node: 0, Thread: 0, Class: "NXTVAL", Start: 7, End: 7})
	p := FromTrace("instant", tr)
	if p.Span != 0 || p.Tasks != 1 {
		t.Fatalf("span=%d tasks=%d, want 0/1", p.Span, p.Tasks)
	}
	p.SetRamp("NXTVAL", tr)
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

// TestEmptyTraceJSON: a profile of a trace with no events at all must
// export cleanly too.
func TestEmptyTraceJSON(t *testing.T) {
	p := FromTrace("empty", trace.New())
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
	p.SetRecovery(Recovery{Retries: 3, Drops: 2, AckDrops: 1, DupSuppressed: 1,
		BackoffTime: 150_000, RetransmitBytes: 2_000_000, Redispatches: 4, RedispatchBytes: 800_000})
	rc := p.Recov
	if rc == nil || rc.Retries != 3 || rc.Redispatches != 4 || rc.RedispatchBytes != 800_000 {
		t.Fatalf("profile recovery = %+v", rc)
	}
}
