package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the layer's public function. parent is the id of the span that caused
// it (0 for a job's root span); all spans of one job share its job id.
type span struct {
	name       string
	job        int
	client     int
	id, parent int
	start, end time.Duration // since the tracer's epoch
}

// tracer collects spans in memory; they are written out when the run
// ends. A nil *tracer is the untraced mode.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(name string, job, client, parent int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, job: job, client: client, id: len(t.spans) + 1, parent: parent, start: now})
	return len(t.spans)
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records a span whose times were measured elsewhere — the phase
// durations a result struct reports — and returns its id.
func (t *tracer) add(name string, job, client, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		name: name, job: job, client: client, id: len(t.spans) + 1, parent: parent,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch),
	})
	return len(t.spans)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.id] = s
	}
	for _, s := range spans {
		p, ok := byID[s.parent]
		if !ok {
			continue
		}
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			kids[p.id] = append(kids[p.id], iv{lo, hi})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.id]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, reach time.Duration
		reach = s.start
		for _, c := range ivs {
			if c.hi <= reach {
				continue
			}
			covered += c.hi - max(c.lo, reach)
			reach = c.hi
		}
		self[s.id] = s.end - s.start - covered
	}
	return self
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count       int
	total, self float64 // seconds
}

// perJob returns the layer's mean time per job that crossed it.
func (l layerStat) perJob(jobs int) float64 {
	if jobs == 0 {
		return 0
	}
	return l.total / float64(jobs)
}

// aggregate folds spans by name and counts the traced jobs.
func aggregate(spans []span) (byName map[string]layerStat, jobs int) {
	self := selfTimes(spans)
	byName = make(map[string]layerStat)
	for _, s := range spans {
		l := byName[s.name]
		l.count++
		l.total += (s.end - s.start).Seconds()
		l.self += self[s.id].Seconds()
		byName[s.name] = l
		if s.parent == 0 {
			jobs++
		}
	}
	return byName, jobs
}

// writeLayerTable prints the per-layer split of the traced jobs.
func writeLayerTable(w io.Writer, byName map[string]layerStat, jobs int) {
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].total > byName[names[j]].total })
	fmt.Fprintf(w, "per-layer spans over %d traced jobs (seconds per job):\n", jobs)
	fmt.Fprintf(w, "  %-22s %8s %12s %12s\n", "span", "calls", "total/job", "self/job")
	for _, n := range names {
		l := byName[n]
		fmt.Fprintf(w, "  %-22s %8d %12.6f %12.6f\n", n, l.count, l.perJob(jobs), l.self/float64(max(jobs, 1)))
	}
}

// chromeEvent is one complete ("X") event of the Chrome / Perfetto
// trace-event format; times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes the spans as trace-event JSON: one row (tid)
// per client, nesting by time containment, with the job id and the
// span/parent ids in args.
func writeChromeTrace(path string, spans []span) error {
	evs := make([]chromeEvent, len(spans))
	for i, s := range spans {
		evs[i] = chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.client,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]int{"job": s.job, "id": s.id, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
