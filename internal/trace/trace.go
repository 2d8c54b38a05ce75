// Package trace reimplements PaRSEC's native performance instrumentation
// (§V): executors record one event per task execution (node, thread,
// class, start, end), and the package renders the traces the paper shows
// in Figs 10-13 — one row per thread, rows grouped by node, colored by
// task class — as ASCII Gantt charts, SVG, and CSV. It also computes the
// summary statistics the paper reads off the traces: startup idle time
// (the v2 bubble of Fig 11) and communication/computation overlap.
package trace

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"parsec/internal/ptg"
)

// Span is what a real executor records per executed task: which
// instance (its Seq in the graph the executor, every rank and the
// coordinator enumerate alike), on which worker, from when to when in
// nanoseconds since the executor started. It is 24 bytes without a
// pointer — a worker appends it to its own buffer with no lock and no
// formatting, a rank ships it as is — and it carries no strings: AddSpans
// labels it, for someone who prints it.
type Span struct {
	Seq, Worker uint32
	Start, End  int64
}

// Event is one labelled task execution: what the renderers draw and the
// simulators record directly. Real executors record Spans instead, and
// AddSpans turns those into Events on demand.
type Event struct {
	Node   int
	Thread int
	// Seq is the creation ordinal of the task instance the event belongs
	// to in the executed PTG (ptg.Instance.Seq). Only PTG executors set
	// it; critical-path replay keys measured durations by it.
	Seq   int
	Class string
	Label string // instance label, e.g. "GEMM(3,7)"
	Start int64  // nanoseconds since execution start
	End   int64
}

// Duration returns End - Start.
func (e Event) Duration() int64 { return e.End - e.Start }

// Counter is one sample of a scalar counter track — the Perfetto-style
// instantaneous state the paper's Gantt charts only imply: ready-queue
// depth, in-flight communication bytes, and similar. Samples with the
// same (Name, Node) form one track.
type Counter struct {
	Name  string
	Node  int
	Ts    int64 // nanoseconds since execution start
	Value float64
}

// Trace is a concurrent-safe collector of events.
type Trace struct {
	mu       sync.Mutex
	events   []Event
	counters []Counter
	sorted   bool
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Add records an event. Safe for concurrent use.
func (t *Trace) Add(ev Event) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.sorted = false
	t.mu.Unlock()
}

// AddSpans materialises one node's recorded spans as labelled events:
// the worker index is the thread lane, and the class and the canonical
// reference string (e.g. "GEMM(1,2,3)", the label convention of
// internal/simexec's traces) come from sk, the skeleton of the graph
// that ran. A span whose Seq sk does not describe (a nil sk describes
// none) becomes class "task", label "#seq". This is the one place a
// real run's labels are formatted, after the run and only for a caller
// that wants a trace. Safe for concurrent use.
func (t *Trace) AddSpans(node int, spans []Span, sk *ptg.Skeleton) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = slices.Grow(t.events, len(spans))
	for _, sp := range spans {
		ev := Event{Node: node, Thread: int(sp.Worker), Seq: int(sp.Seq), Start: sp.Start, End: sp.End}
		if ref, ok := sk.Ref(ev.Seq); ok {
			ev.Class, ev.Label = ref.Class, ref.String()
		} else {
			ev.Class, ev.Label = "task", fmt.Sprintf("#%d", sp.Seq)
		}
		t.events = append(t.events, ev)
	}
	t.sorted = false
}

// AddCounter records a counter sample. Safe for concurrent use.
func (t *Trace) AddCounter(c Counter) {
	t.mu.Lock()
	t.counters = append(t.counters, c)
	t.mu.Unlock()
}

// Counters returns the counter samples sorted by (name, node, ts). The
// returned slice is owned by the trace; callers must not mutate it.
func (t *Trace) Counters() []Counter {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.SliceStable(t.counters, func(i, j int) bool {
		a, b := t.counters[i], t.counters[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Ts < b.Ts
	})
	return t.counters
}

// Len returns the number of events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns the events sorted by (node, thread, start, end).
// The returned slice is owned by the trace; callers must not mutate it.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.sorted {
		sort.Slice(t.events, func(i, j int) bool {
			a, b := t.events[i], t.events[j]
			if a.Node != b.Node {
				return a.Node < b.Node
			}
			if a.Thread != b.Thread {
				return a.Thread < b.Thread
			}
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			return a.End < b.End
		})
		t.sorted = true
	}
	return t.events
}

// Span returns the earliest start and latest end over all events.
func (t *Trace) Span() (start, end int64) {
	evs := t.Events()
	if len(evs) == 0 {
		return 0, 0
	}
	start, end = evs[0].Start, evs[0].End
	for _, e := range evs {
		if e.Start < start {
			start = e.Start
		}
		if e.End > end {
			end = e.End
		}
	}
	return start, end
}

// threadKey identifies one trace row.
type threadKey struct{ node, thread int }

// rows groups events by (node, thread), each row sorted by start.
func (t *Trace) rows() (keys []threadKey, byRow map[threadKey][]Event) {
	byRow = make(map[threadKey][]Event)
	for _, e := range t.Events() {
		k := threadKey{e.Node, e.Thread}
		byRow[k] = append(byRow[k], e)
	}
	for k := range byRow {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		return keys[i].thread < keys[j].thread
	})
	return keys, byRow
}

// Validate checks trace well-formedness: non-negative durations and no
// overlapping events on the same (node, thread). A thread is a serial
// resource; overlap means the executor double-booked it.
func (t *Trace) Validate() error {
	keys, byRow := t.rows()
	for _, k := range keys {
		var prev *Event
		for i := range byRow[k] {
			e := &byRow[k][i]
			if e.End < e.Start {
				return fmt.Errorf("trace: %s on n%d/t%d has End < Start", e.Label, e.Node, e.Thread)
			}
			if prev != nil && e.Start < prev.End {
				return fmt.Errorf("trace: overlap on n%d/t%d: %s [%d,%d) vs %s [%d,%d)",
					k.node, k.thread, prev.Label, prev.Start, prev.End, e.Label, e.Start, e.End)
			}
			prev = e
		}
	}
	return nil
}

// ClassStat aggregates one task class.
type ClassStat struct {
	Class string
	Count int
	Busy  int64
}

// Summary is what the paper reads off a trace: how busy each class kept
// the machine, how long threads idled before their first task (the
// Fig 11 startup bubble), and the overall idle fraction.
type Summary struct {
	Span         int64 // makespan (ns)
	Threads      int
	ByClass      []ClassStat
	TotalBusy    int64
	IdleFraction float64 // 1 - busy / (threads * span)
	// StartupIdleMean is the mean over threads of the time between
	// execution start and the thread's first event.
	StartupIdleMean int64
	// StartupIdleFrac is StartupIdleMean / Span.
	StartupIdleFrac float64
}

// Summarize computes the summary.
func (t *Trace) Summarize() Summary {
	keys, byRow := t.rows()
	start, end := t.Span()
	s := Summary{Span: end - start, Threads: len(keys)}
	classes := map[string]*ClassStat{}
	var startupTotal int64
	for _, k := range keys {
		row := byRow[k]
		startupTotal += row[0].Start - start
		for _, e := range row {
			cs := classes[e.Class]
			if cs == nil {
				cs = &ClassStat{Class: e.Class}
				classes[e.Class] = cs
			}
			cs.Count++
			cs.Busy += e.Duration()
			s.TotalBusy += e.Duration()
		}
	}
	names := make([]string, 0, len(classes))
	for n := range classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.ByClass = append(s.ByClass, *classes[n])
	}
	if s.Threads > 0 && s.Span > 0 {
		s.IdleFraction = 1 - float64(s.TotalBusy)/(float64(s.Threads)*float64(s.Span))
		s.StartupIdleMean = startupTotal / int64(s.Threads)
		s.StartupIdleFrac = float64(s.StartupIdleMean) / float64(s.Span)
	}
	return s
}

// String renders the summary with one line per class.
func (s Summary) String() string {
	out := fmt.Sprintf("span=%.3fs threads=%d idle=%.1f%% startup-idle=%.1f%%\n",
		float64(s.Span)/1e9, s.Threads, 100*s.IdleFraction, 100*s.StartupIdleFrac)
	for _, c := range s.ByClass {
		out += fmt.Sprintf("  %-10s count=%-6d busy=%.3fs\n", c.Class, c.Count, float64(c.Busy)/1e9)
	}
	return out
}

// Window returns a new trace containing only the events overlapping
// [from, to), with events clipped to the window — the "zoomed in" view
// of Fig 13, which magnifies part of Fig 12's trace so individual tasks
// can be discerned.
func (t *Trace) Window(from, to int64) *Trace {
	out := New()
	for _, e := range t.Events() {
		if e.End <= from || e.Start >= to {
			continue
		}
		c := e
		if c.Start < from {
			c.Start = from
		}
		if c.End > to {
			c.End = to
		}
		out.Add(c)
	}
	for _, c := range t.Counters() {
		if c.Ts >= from && c.Ts < to {
			out.AddCounter(c)
		}
	}
	return out
}

// RampStats returns the mean and max, over threads, of the time from
// execution start until the thread's first event of the given class.
// With class "GEMM" this quantifies the startup bubble of Fig 11: until
// input blocks arrive, workers have nothing to compute.
func (t *Trace) RampStats(class string) (mean, max int64) {
	keys, byRow := t.rows()
	start, _ := t.Span()
	var total int64
	n := 0
	for _, k := range keys {
		for _, e := range byRow[k] {
			if e.Class == class {
				d := e.Start - start
				total += d
				if d > max {
					max = d
				}
				n++
				break
			}
		}
	}
	if n > 0 {
		mean = total / int64(n)
	}
	return mean, max
}

// OverlapStats measures communication/computation overlap: the fraction
// of total communication time (events whose class is in commClasses)
// during which at least one compute event (any other class) was running
// on the same node. The original code's trace shows ~zero overlap
// (Fig 12/13); the PaRSEC variants show high overlap.
func (t *Trace) OverlapStats(commClasses map[string]bool) (commTime, overlapped int64) {
	// Per node, build compute intervals and comm intervals.
	type iv struct{ s, e int64 }
	compute := map[int][]iv{}
	comm := map[int][]iv{}
	for _, e := range t.Events() {
		if commClasses[e.Class] {
			comm[e.Node] = append(comm[e.Node], iv{e.Start, e.End})
		} else {
			compute[e.Node] = append(compute[e.Node], iv{e.Start, e.End})
		}
	}
	merge := func(ivs []iv) []iv {
		if len(ivs) == 0 {
			return nil
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
		out := []iv{ivs[0]}
		for _, v := range ivs[1:] {
			last := &out[len(out)-1]
			if v.s <= last.e {
				if v.e > last.e {
					last.e = v.e
				}
			} else {
				out = append(out, v)
			}
		}
		return out
	}
	for node, cs := range comm {
		merged := merge(compute[node])
		for _, c := range cs {
			commTime += c.e - c.s
			// Intersect c with merged compute intervals.
			for _, m := range merged {
				lo, hi := max64(c.s, m.s), min64(c.e, m.e)
				if hi > lo {
					overlapped += hi - lo
				}
			}
		}
	}
	return commTime, overlapped
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
