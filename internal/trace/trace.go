// Package trace reimplements PaRSEC's native performance instrumentation
// (§V): every executor, real or simulated, records one Span per task
// execution (instance, worker, start, end), and the package renders the
// traces the paper shows in Figs 10-13 — one row per thread, rows
// grouped by node, colored by task class — as ASCII Gantt charts, SVG,
// CSV and Chrome trace-event JSON, labelling the spans from the
// skeleton of the graph that ran. It also measures the
// communication/computation overlap the paper reads off the traces; the
// rest of what a trace shows in numbers is internal/obsv's profile.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"parsec/internal/ptg"
)

// Span is what an executor records per executed task: which instance
// (its Seq in the graph the executor, every rank and the coordinator
// enumerate alike), on which worker, from when to when in nanoseconds
// since the executor started (virtual time, for a simulator). It is 24
// bytes without a pointer — a worker appends it to its own buffer with
// no lock and no formatting, a rank ships it as is — and it carries no
// strings: Events labels it, for someone who prints it.
type Span struct {
	Seq, Worker uint32
	Start, End  int64
}

// Event is one labelled task execution: what the renderers draw. A
// trace holds spans, and Events labels them on first call.
type Event struct {
	Node   int
	Thread int
	// Seq is the creation ordinal of the task instance the event belongs
	// to in the executed PTG (ptg.Instance.Seq).
	Seq   int
	Class string
	Label string // instance label, e.g. "GEMM(3,7,0)"
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

// Trace is what a run recorded: its spans by node, the skeleton that
// names them, and counter samples. A simulated run hands its spans over
// with AddSpans, and a real run's Report.Spans go in the same way;
// labels are built only when someone asks for Events. Safe for
// concurrent use.
type Trace struct {
	mu       sync.Mutex
	spans    [][]Span // by node
	sk       *ptg.Skeleton
	counters []Counter
	events   []Event // the spans labelled and sorted; nil until Events
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// AddSpans appends one node's recorded spans, as an executor hands them
// over: grouped by worker, each worker's in start order (the layout
// obsv.FromSpans reads). sk is the skeleton of the graph that ran, the
// same for every call on one trace: the worker index is the thread
// lane, and the class and canonical reference string (e.g.
// "GEMM(1,2,3)") of a span come from it when Events labels them. A span
// whose Seq sk does not describe (a nil sk describes none) becomes
// class "task", label "#seq".
func (t *Trace) AddSpans(node int, spans []Span, sk *ptg.Skeleton) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.spans) <= node {
		t.spans = append(t.spans, nil)
	}
	t.spans[node] = append(t.spans[node], spans...)
	t.sk, t.events = sk, nil
}

// Spans returns the recorded spans by node and the skeleton that names
// them: what obsv.FromSpans profiles. The slices are owned by the
// trace; callers must not mutate them.
func (t *Trace) Spans() ([][]Span, *ptg.Skeleton) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans, t.sk
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

// Len returns the number of recorded spans.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, spans := range t.spans {
		n += len(spans)
	}
	return n
}

// Events returns the spans as labelled events sorted by (node, thread,
// start, end, seq), labelling them on the first call after spans were
// added. The returned slice is owned by the trace; callers must not
// mutate it.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.events != nil {
		return t.events
	}
	t.events = []Event{}
	for node, spans := range t.spans {
		for _, sp := range spans {
			ev := Event{Node: node, Thread: int(sp.Worker), Seq: int(sp.Seq), Start: sp.Start, End: sp.End}
			if ref, ok := t.sk.Ref(ev.Seq); ok {
				ev.Class, ev.Label = ref.Class, ref.String()
			} else {
				ev.Class, ev.Label = "task", fmt.Sprintf("#%d", sp.Seq)
			}
			t.events = append(t.events, ev)
		}
	}
	slices.SortFunc(t.events, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.Thread, b.Thread),
			cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End), cmp.Compare(a.Seq, b.Seq))
	})
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

// Window returns a new trace containing only the spans overlapping
// [from, to), clipped to the window — the "zoomed in" view of Fig 13,
// which magnifies part of Fig 12's trace so individual tasks can be
// discerned — and the counter samples inside it.
func (t *Trace) Window(from, to int64) *Trace {
	byNode, sk := t.Spans()
	out := &Trace{sk: sk, spans: make([][]Span, len(byNode))}
	for node, spans := range byNode {
		for _, sp := range spans {
			if sp.End <= from || sp.Start >= to {
				continue
			}
			sp.Start, sp.End = max(sp.Start, from), min(sp.End, to)
			out.spans[node] = append(out.spans[node], sp)
		}
	}
	for _, c := range t.Counters() {
		if c.Ts >= from && c.Ts < to {
			out.counters = append(out.counters, c)
		}
	}
	return out
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
				lo, hi := max(c.s, m.s), min(c.e, m.e)
				if hi > lo {
					overlapped += hi - lo
				}
			}
		}
	}
	return commTime, overlapped
}
