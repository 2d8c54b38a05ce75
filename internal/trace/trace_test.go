package trace

import (
	"bytes"
	"cmp"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"

	"parsec/internal/ptg"
)

// rec is one recorded task of a test trace: where, which class, when.
type rec struct {
	node, thread int
	class        string
	start, end   int64
}

// traceOf records rs as an executor hands its spans over: each span is
// the next instance of its class in a skeleton made for rs (instance k
// of a class is CLASS(k,0,0)), and each node's spans come grouped by
// worker in start order.
func traceOf(t testing.TB, rs ...rec) *Trace {
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
	var byNode [][]Span
	for _, r := range rs {
		for len(byNode) <= r.node {
			byNode = append(byNode, nil)
		}
		byNode[r.node] = append(byNode[r.node], Span{Seq: uint32(next[r.class]), Worker: uint32(r.thread), Start: r.start, End: r.end})
		next[r.class]++
	}
	tr := New()
	for node, spans := range byNode {
		slices.SortStableFunc(spans, func(a, b Span) int {
			return cmp.Or(cmp.Compare(a.Worker, b.Worker), cmp.Compare(a.Start, b.Start))
		})
		tr.AddSpans(node, spans, sk)
	}
	return tr
}

// sampleRecs: node 0, thread 0 reads then runs a GEMM; thread 1 is
// idle at the start; node 1 writes at the end.
var sampleRecs = []rec{
	{0, 0, "READA", 0, 100},
	{0, 0, "GEMM", 100, 400},
	{0, 1, "GEMM", 200, 500},
	{1, 0, "WRITE", 450, 500},
}

func sampleTrace(t testing.TB) *Trace { return traceOf(t, sampleRecs...) }

func TestEventsSorted(t *testing.T) {
	tr := sampleTrace(t)
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if a.Node > b.Node || (a.Node == b.Node && a.Thread > b.Thread) {
			t.Fatalf("events not sorted: %+v before %+v", a, b)
		}
	}
}

func TestSpan(t *testing.T) {
	tr := sampleTrace(t)
	s, e := tr.Span()
	if s != 0 || e != 500 {
		t.Errorf("Span = [%d,%d], want [0,500]", s, e)
	}
	empty := New()
	if s, e := empty.Span(); s != 0 || e != 0 {
		t.Error("empty span not zero")
	}
}

func TestValidateDetectsOverlap(t *testing.T) {
	tr := sampleTrace(t)
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	tr = traceOf(t, append(sampleRecs, rec{0, 0, "GEMM", 350, 360})...)
	if err := tr.Validate(); err == nil {
		t.Error("overlap not detected")
	}
	if err := traceOf(t, rec{0, 0, "X", 10, 5}).Validate(); err == nil {
		t.Error("negative duration not detected")
	}
}

func TestOverlapStats(t *testing.T) {
	comm := map[string]bool{"READA": true}
	tr := traceOf(t,
		// Comm [0,100) with compute [50,150) on same node: 50 overlapped.
		rec{0, 0, "READA", 0, 100},
		rec{0, 1, "GEMM", 50, 150},
		// Comm on node 1 with no compute: no overlap.
		rec{1, 0, "READA", 0, 80},
	)
	commTime, over := tr.OverlapStats(comm)
	if commTime != 180 {
		t.Errorf("commTime = %d, want 180", commTime)
	}
	if over != 50 {
		t.Errorf("overlapped = %d, want 50", over)
	}
}

func TestASCIIGantt(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := tr.ASCIIGantt(&buf, 50); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "node 0") || !strings.Contains(out, "node 1") {
		t.Error("missing node headers")
	}
	if !strings.Contains(out, "G") || !strings.Contains(out, "legend:") {
		t.Error("missing glyphs or legend")
	}
	var empty bytes.Buffer
	if err := New().ASCIIGantt(&empty, 50); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "empty") {
		t.Error("empty trace not handled")
	}
}

func TestWriteCSV(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // header + 4 events
		t.Errorf("CSV lines = %d", len(lines))
	}
	if lines[0] != "node,thread,class,label,start_ns,end_ns" {
		t.Errorf("header = %q", lines[0])
	}
}

func TestWriteSVG(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteSVG(&buf, 400); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "</svg>") {
		t.Error("not an SVG document")
	}
	if !strings.Contains(out, "#c0392b") { // GEMM red
		t.Error("missing GEMM color")
	}
	var empty bytes.Buffer
	if err := New().WriteSVG(&empty, 400); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAdd: nodes hand their spans over concurrently, as
// netrun's ranks report.
func TestConcurrentAdd(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.AddSpans(i, []Span{{Seq: uint32(j), Start: int64(j), End: int64(j + 1)}}, nil)
			}
		}(i)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestGlyphAndColorFallbacks(t *testing.T) {
	if glyphFor("UNKNOWN") != 'U' || glyphFor("") != '?' {
		t.Error("glyph fallback")
	}
	if colorFor("UNKNOWN") != "#95a5a6" {
		t.Error("color fallback")
	}
}

func TestWindow(t *testing.T) {
	tr := sampleTrace(t)
	z := tr.Window(150, 450)
	for _, e := range z.Events() {
		if e.Start < 150 || e.End > 450 {
			t.Fatalf("event outside window: %+v", e)
		}
	}
	// GEMM(0,0) [100,400) is clipped to [150,400); GEMM(1,0) [200,500) to
	// [200,450); READA [0,100) and WRITE [450,500) are dropped.
	if z.Len() != 2 {
		t.Errorf("window events = %d, want 2", z.Len())
	}
	s, e := z.Span()
	if s < 150 || e > 450 {
		t.Errorf("window span [%d,%d]", s, e)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var tasks, counters []map[string]any
	for _, e := range events {
		switch e["ph"] {
		case "X":
			tasks = append(tasks, e)
		case "C":
			counters = append(counters, e)
		}
	}
	if len(tasks) != 4 {
		t.Fatalf("task events = %d", len(tasks))
	}
	if tasks[0]["ph"] != "X" || tasks[0]["cat"] != "READA" {
		t.Errorf("first event: %v", tasks[0])
	}
	// The derived "busy workers" track must be present for both nodes.
	if len(counters) == 0 {
		t.Fatal("no counter samples in export")
	}
	nodes := map[float64]bool{}
	for _, c := range counters {
		if c["name"] != "busy workers" {
			t.Fatalf("unexpected counter %v", c["name"])
		}
		nodes[c["pid"].(float64)] = true
	}
	if !nodes[0] || !nodes[1] {
		t.Errorf("busy-workers tracks missing a node: %v", nodes)
	}
}

func TestWriteChromeTraceCounters(t *testing.T) {
	tr := sampleTrace(t)
	tr.AddCounter(Counter{Name: "ready tasks", Node: 0, Ts: 50, Value: 3})
	tr.AddCounter(Counter{Name: "ready tasks", Node: 0, Ts: 150, Value: 1})
	tr.AddCounter(Counter{Name: "comm bytes in flight", Node: 1, Ts: 75, Value: 4096})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	byName := map[string]int{}
	for _, e := range events {
		if e["ph"] == "C" {
			byName[e["name"].(string)]++
		}
	}
	if byName["ready tasks"] != 2 || byName["comm bytes in flight"] != 1 {
		t.Fatalf("counter samples = %v", byName)
	}
}

func TestCountersSortedAndWindowed(t *testing.T) {
	tr := New()
	tr.AddCounter(Counter{Name: "b", Node: 0, Ts: 20, Value: 1})
	tr.AddCounter(Counter{Name: "a", Node: 1, Ts: 10, Value: 2})
	tr.AddCounter(Counter{Name: "a", Node: 0, Ts: 30, Value: 3})
	cs := tr.Counters()
	if cs[0].Name != "a" || cs[0].Node != 0 || cs[1].Node != 1 || cs[2].Name != "b" {
		t.Fatalf("counters not sorted: %+v", cs)
	}
	tr.AddSpans(0, []Span{{Start: 0, End: 100}}, nil)
	win := tr.Window(15, 25)
	if got := win.Counters(); len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("windowed counters = %+v", got)
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty export invalid JSON: %v", err)
	}
	if len(events) != 0 {
		t.Fatalf("events = %d", len(events))
	}
}

func TestEmptyTraceRenders(t *testing.T) {
	tr := New()
	var buf bytes.Buffer
	if err := tr.ASCIIGantt(&buf, 80); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty trace") {
		t.Errorf("empty Gantt output: %q", buf.String())
	}
	buf.Reset()
	if err := tr.WriteSVG(&buf, 100); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Error("empty SVG missing root element")
	}
}

func TestSingleEventTrace(t *testing.T) {
	tr := traceOf(t, rec{0, 0, "GEMM", 10, 20})
	if s, e := tr.Span(); s != 10 || e != 20 {
		t.Fatalf("Span = [%d,%d], want [10,20]", s, e)
	}
	var buf bytes.Buffer
	if err := tr.ASCIIGantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "G") {
		t.Error("single event missing from Gantt")
	}
}

func TestZeroDurationSpans(t *testing.T) {
	tr := traceOf(t, rec{0, 0, "NXTVAL", 50, 50}, rec{0, 0, "GEMM", 50, 150})
	if err := tr.Validate(); err != nil {
		t.Fatalf("zero-duration event rejected: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// The derived busy-workers track must never dip negative around the
	// zero-duration event.
	for _, e := range events {
		if e["ph"] == "C" {
			if v := e["args"].(map[string]any)["value"].(float64); v < 0 {
				t.Fatalf("busy workers went negative: %v", e)
			}
		}
	}
}
