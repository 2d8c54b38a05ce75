// Package obsv is the unified observability layer shared by the real
// runtime (internal/runtime) and the simulator (internal/simexec). The
// paper argues entirely from its traces — Fig 11's startup bubble, Figs
// 12/13's unoverlapped communication, §IV-C's priority-driven variant
// ordering — and this package turns those pictures into numbers:
// log-bucketed per-task-class duration histograms (count/p50/p95/p99/
// max), per-worker idle-gap accounting (total idle, longest bubble and
// when it opened, startup idle), communication-volume counters (bytes
// per class, GET vs ACC), and critical-path attribution that replays the
// executed DAG to report what fraction of the critical path each task
// class contributes.
//
// A Profile is built from a recorded trace with FromTrace (the
// simulators, which record labelled events) or straight from a real
// run's spans with FromSpans (the service, netrun — no trace is built),
// enriched with SetComm and SetCritical, and rendered as text by
// metrics.WriteProfile or exported as JSON (WriteJSON) for regression
// diffing. cmd/ccsim profile is the command-line surface.
package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"parsec/internal/ptg"
	"parsec/internal/trace"
)

// nbuckets covers every int64 duration: bucket 0 holds [0,1) ns, bucket
// i>=1 holds [2^(i-1), 2^i) ns.
const nbuckets = 65

// Histogram is a log-2-bucketed duration histogram (nanoseconds). The
// zero value is ready to use; Add is not concurrency-safe.
type Histogram struct {
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
	buckets [nbuckets]int64
}

// bucketOf returns the bucket index for a duration.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	return bits.Len64(uint64(ns))
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 1
	}
	return int64(1) << (i - 1), int64(1) << i
}

// Add records one duration. Negative durations clamp to zero.
func (h *Histogram) Add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if h.Count == 0 || ns < h.Min {
		h.Min = ns
	}
	if ns > h.Max {
		h.Max = ns
	}
	h.Count++
	h.Sum += ns
	h.buckets[bucketOf(ns)]++
}

// Merge folds o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the bucket where the cumulative count crosses q·Count, clamped
// to the observed [Min, Max]. Empty histograms return 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	target := q * float64(h.Count)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c) >= target {
			lo, hi := bucketBounds(i)
			frac := (target - float64(cum)) / float64(c)
			v := int64(float64(lo) + frac*float64(hi-lo))
			if v < h.Min {
				v = h.Min
			}
			if v > h.Max {
				v = h.Max
			}
			return v
		}
		cum += c
	}
	return h.Max
}

// Buckets returns the non-empty buckets as (lo, hi, count) triples, in
// increasing duration order.
func (h *Histogram) Buckets() [][3]int64 {
	var out [][3]int64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		out = append(out, [3]int64{lo, hi, c})
	}
	return out
}

// ClassProfile is the exported summary of one task class's duration
// distribution.
type ClassProfile struct {
	Class string `json:"class"`
	Count int64  `json:"count"`
	P50   int64  `json:"p50_ns"`
	P95   int64  `json:"p95_ns"`
	P99   int64  `json:"p99_ns"`
	Max   int64  `json:"max_ns"`
	Total int64  `json:"total_ns"`
}

// WorkerProfile is the idle-gap accounting for one trace row (one
// worker thread on one node), over the trace's global [start, end] span.
type WorkerProfile struct {
	Node   int   `json:"node"`
	Thread int   `json:"thread"`
	Tasks  int   `json:"tasks"`
	Busy   int64 `json:"busy_ns"`
	Idle   int64 `json:"idle_ns"`
	// StartupIdle is the gap between the global span start and this
	// worker's first event — the per-worker form of Fig 11's bubble.
	StartupIdle int64 `json:"startup_idle_ns"`
	// LongestBubble is the longest single idle gap (startup, interior,
	// or tail) and BubbleStart is when it opened.
	LongestBubble int64 `json:"longest_bubble_ns"`
	BubbleStart   int64 `json:"bubble_start_ns"`
}

// Name returns the row label, e.g. "n0/t3".
func (w WorkerProfile) Name() string { return fmt.Sprintf("n%d/t%d", w.Node, w.Thread) }

// IdleSummary aggregates the per-worker idle accounting.
type IdleSummary struct {
	TotalIdle int64 `json:"total_idle_ns"`
	// MeanIdleFrac is mean over workers of idle/span.
	MeanIdleFrac float64 `json:"mean_idle_frac"`
	// MeanStartup is the mean startup idle over workers.
	MeanStartup int64 `json:"mean_startup_ns"`
	// MaxBubble locates the single longest idle gap on any worker.
	MaxBubble      int64  `json:"max_bubble_ns"`
	MaxBubbleAt    int64  `json:"max_bubble_at_ns"`
	MaxBubbleOwner string `json:"max_bubble_owner"`
}

// CommStats is the communication-volume side of a profile. The GET/ACC
// pair covers Global-Arrays one-sided traffic (the original code's
// GET_HASH_BLOCK / ADD_HASH_BLOCK); ByClass covers dataflow payloads
// delivered to each consumer task class by the PTG communication
// threads; Transfers/TotalBytes total the inter-node deliveries.
type CommStats struct {
	GetOps     int64            `json:"get_ops,omitempty"`
	GetBytes   int64            `json:"get_bytes,omitempty"`
	AccOps     int64            `json:"acc_ops,omitempty"`
	AccBytes   int64            `json:"acc_bytes,omitempty"`
	Transfers  int64            `json:"transfers,omitempty"`
	TotalBytes int64            `json:"total_bytes,omitempty"`
	ByClass    map[string]int64 `json:"bytes_by_class,omitempty"`
}

// RampStat quantifies Fig 11's startup bubble for one class: the mean
// and max, over workers, of the time until each worker's first event of
// that class — absolute and as a fraction of the span. Until input
// blocks arrive, workers have nothing of the class to compute, so with
// class GEMM this is the paper's bubble in numbers (v2 vs v4).
type RampStat struct {
	Class    string  `json:"class"`
	Mean     int64   `json:"mean_ns"`
	Max      int64   `json:"max_ns"`
	MeanFrac float64 `json:"mean_frac"`
	MaxFrac  float64 `json:"max_frac"`
}

// Recovery is the fault-recovery side of a profile: what the comm
// threads and the scheduler did to absorb injected faults. Retries
// counts retransmissions (one per payload drop or lost ack); backoff is
// the total time senders spent waiting between attempts; retransmit
// bytes are extra wire volume beyond the logical traffic in CommStats.
// Redispatches counts tasks migrated off straggling nodes by the
// inter-node steal path, with the input bytes their GETs dragged along.
type Recovery struct {
	Retries         int   `json:"retries,omitempty"`
	Drops           int   `json:"drops,omitempty"`
	AckDrops        int   `json:"ack_drops,omitempty"`
	DupSuppressed   int   `json:"dup_suppressed,omitempty"`
	BackoffTime     int64 `json:"backoff_ns,omitempty"`
	RetransmitBytes int64 `json:"retransmit_bytes,omitempty"`
	Redispatches    int   `json:"redispatches,omitempty"`
	RedispatchBytes int64 `json:"redispatch_bytes,omitempty"`
}

// SlowdownCause charges part of a perturbed run's loss to one injected
// cause (a straggling node, latency spikes, GA-service hiccups, retry
// backoff). Charges are serial wall-clock charges from the injector's
// ledger: parallel slack absorbs some of them and recovery shifts
// others off the critical path, so shares of the observed loss need not
// sum to 100% — a share well above it means recovery hid most of the
// injected delay.
type SlowdownCause struct {
	Cause string `json:"cause"`
	Time  int64  `json:"time_ns"`
	// Frac is Time over the observed loss; 0 when the loss is not
	// positive (guarding the JSON export against NaN/Inf).
	Frac float64 `json:"frac_of_loss,omitempty"`
}

// Slowdown compares a perturbed run against its fault-free twin and
// attributes the difference.
type Slowdown struct {
	BaselineSpan int64           `json:"baseline_span_ns"`
	Loss         int64           `json:"loss_ns"`
	Causes       []SlowdownCause `json:"causes,omitempty"`
}

// PathShare is one task class's contribution to the critical path.
type PathShare struct {
	Class string  `json:"class"`
	Tasks int     `json:"tasks"`
	Time  int64   `json:"time_ns"`
	Frac  float64 `json:"frac"`
}

// CritPath is the critical-path attribution of an executed DAG.
type CritPath struct {
	Length     int64       `json:"length_ns"`
	TotalWork  int64       `json:"total_work_ns"`
	MaxSpeedup float64     `json:"max_speedup"`
	Tasks      int         `json:"tasks"`
	Shares     []PathShare `json:"shares"`
}

// Phases is the coarse lifecycle timing of one service job: how long it
// waited for admission, how long the cacheable front half (inspection +
// chain planning) took — zero on a plan-cache hit, which is exactly the
// cost the cache exists to shed — and how long real execution ran.
type Phases struct {
	QueueNs   int64 `json:"queue_ns"`
	InspectNs int64 `json:"inspect_ns"`
	PlanNs    int64 `json:"plan_ns"`
	ExecNs    int64 `json:"exec_ns"`
	CacheHit  bool  `json:"cache_hit"`
}

// Profile is the complete observability record of one run.
type Profile struct {
	Name    string          `json:"name"`
	Span    int64           `json:"span_ns"`
	Tasks   int64           `json:"tasks"`
	Classes []ClassProfile  `json:"classes"`
	Workers []WorkerProfile `json:"workers"`
	Idle    IdleSummary     `json:"idle"`
	Ramp    *RampStat       `json:"ramp,omitempty"`
	Comm    *CommStats      `json:"comm,omitempty"`
	Crit    *CritPath       `json:"critical_path,omitempty"`
	Recov   *Recovery       `json:"recovery,omitempty"`
	Slow    *Slowdown       `json:"slowdown,omitempty"`
	Phase   *Phases         `json:"phases,omitempty"`
}

// FromTrace computes the histogram and idle-gap halves of a profile from
// a recorded trace. Comm and critical-path attribution are attached
// separately (SetComm, SetCritical) because they need executor state the
// trace does not carry.
func FromTrace(name string, t *trace.Trace) *Profile {
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

	// Events() is sorted by (node, thread, start): walk each row once.
	w := rowWalk{p: p, start: start, end: end}
	for i := range evs {
		e := &evs[i]
		w.add(e.Node, e.Thread, e.Start, e.End)
	}
	w.finish()
	return p
}

// FromSpans computes the same profile FromTrace computes from the
// labelled trace of the same run — every field equal — straight from the
// spans real executors record, without building that trace: byNode[n] is
// node n's spans as runtime.Report.Spans and a netrun rank's report carry
// them (grouped by worker in increasing order, each worker's in start
// order), and sk, the skeleton of the graph that ran, supplies what a
// span leaves out, the class. Durations go into histograms indexed by
// class, and each worker's row is walked in the order it was recorded:
// no label is formatted, no span is sorted, no lock is taken. Spans sk
// does not describe (a nil sk describes none) count under class "task",
// as trace.Trace.AddSpans labels them.
func FromSpans(name string, byNode [][]trace.Span, sk *ptg.Skeleton) *Profile {
	p := &Profile{Name: name}
	names := append(sk.ClassNames(), "task")
	hists := make([]Histogram, len(names))
	var start, end int64
	for _, spans := range byNode {
		for i := range spans {
			sp := &spans[i]
			if p.Tasks == 0 || sp.Start < start {
				start = sp.Start
			}
			if p.Tasks == 0 || sp.End > end {
				end = sp.End
			}
			p.Tasks++
			ci := sk.ClassOf(int(sp.Seq))
			if ci < 0 {
				ci = len(names) - 1
			}
			hists[ci].Add(sp.End - sp.Start)
		}
	}
	p.Span = end - start
	for ci := range hists {
		if hists[ci].Count > 0 {
			p.Classes = append(p.Classes, hists[ci].profile(names[ci]))
		}
	}
	slices.SortFunc(p.Classes, func(a, b ClassProfile) int { return strings.Compare(a.Class, b.Class) })

	w := rowWalk{p: p, start: start, end: end}
	for node, spans := range byNode {
		for i := range spans {
			sp := &spans[i]
			w.add(node, int(sp.Worker), sp.Start, sp.End)
		}
	}
	w.finish()
	return p
}

// profile summarizes the histogram as one class's row of a Profile.
func (h *Histogram) profile(class string) ClassProfile {
	return ClassProfile{
		Class: class,
		Count: h.Count,
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max,
		Total: h.Sum,
	}
}

// rowWalk builds a profile's per-worker idle accounting from task
// executions visited in (node, thread, start) order, over the run's
// global [start, end] span.
type rowWalk struct {
	p          *Profile
	start, end int64
	cur        WorkerProfile // the row being walked, once open
	open       bool
	lastEnd    int64
}

// gap charges the current row an idle interval [lastEnd, to).
func (w *rowWalk) gap(to int64) {
	if g := to - w.lastEnd; g > 0 {
		w.cur.Idle += g
		if g > w.cur.LongestBubble {
			w.cur.LongestBubble, w.cur.BubbleStart = g, w.lastEnd-w.start
		}
	}
}

// flush closes the current row with its tail idle.
func (w *rowWalk) flush() {
	if w.open {
		w.gap(w.end)
		w.p.Workers = append(w.p.Workers, w.cur)
	}
}

func (w *rowWalk) add(node, thread int, s, e int64) {
	if !w.open || node != w.cur.Node || thread != w.cur.Thread {
		w.flush()
		w.cur, w.open = WorkerProfile{Node: node, Thread: thread, StartupIdle: s - w.start}, true
		w.lastEnd = w.start
	}
	w.gap(s)
	w.cur.Tasks++
	w.cur.Busy += e - s
	if e > w.lastEnd {
		w.lastEnd = e
	}
}

// finish closes the last row and folds the rows into the idle summary.
func (w *rowWalk) finish() {
	w.flush()
	p := w.p
	if n := len(p.Workers); n > 0 && p.Span > 0 {
		var fracSum float64
		for _, wp := range p.Workers {
			p.Idle.TotalIdle += wp.Idle
			p.Idle.MeanStartup += wp.StartupIdle
			fracSum += float64(wp.Idle) / float64(p.Span)
			if wp.LongestBubble > p.Idle.MaxBubble {
				p.Idle.MaxBubble = wp.LongestBubble
				p.Idle.MaxBubbleAt = wp.BubbleStart
				p.Idle.MaxBubbleOwner = wp.Name()
			}
		}
		p.Idle.MeanIdleFrac = fracSum / float64(n)
		p.Idle.MeanStartup /= int64(n)
	}
}

// SetComm attaches communication-volume counters.
func (p *Profile) SetComm(c CommStats) { p.Comm = &c }

// SetPhases attaches service-job lifecycle timings.
func (p *Profile) SetPhases(ph Phases) { p.Phase = &ph }

// SetRecovery attaches fault-recovery counters.
func (p *Profile) SetRecovery(rec Recovery) { p.Recov = &rec }

// SetSlowdown attaches slowdown attribution against a fault-free
// baseline span. Zero-time causes are dropped; the rest are ordered
// largest charge first. Fractions are only computed when the observed
// loss is positive, so the JSON export never carries NaN or Inf.
func (p *Profile) SetSlowdown(baselineSpan int64, causes []SlowdownCause) {
	s := &Slowdown{BaselineSpan: baselineSpan, Loss: p.Span - baselineSpan}
	for _, c := range causes {
		if c.Time == 0 {
			continue
		}
		if s.Loss > 0 {
			c.Frac = float64(c.Time) / float64(s.Loss)
		} else {
			c.Frac = 0
		}
		s.Causes = append(s.Causes, c)
	}
	sort.SliceStable(s.Causes, func(i, j int) bool { return s.Causes[i].Time > s.Causes[j].Time })
	p.Slow = s
}

// SetRamp attaches the time-to-first-event ramp for one class,
// computed from the recorded trace (trace.RampStats).
func (p *Profile) SetRamp(class string, tr *trace.Trace) {
	mean, max := tr.RampStats(class)
	r := &RampStat{Class: class, Mean: mean, Max: max}
	if p.Span > 0 {
		r.MeanFrac = float64(mean) / float64(p.Span)
		r.MaxFrac = float64(max) / float64(p.Span)
	}
	p.Ramp = r
}

// SetCritical attaches critical-path attribution from a work/span
// analysis of the executed DAG (ptg.Analyze replayed under measured or
// modeled durations — Analysis.Path and Analysis.PathDur carry the
// path's tasks and their charges).
func (p *Profile) SetCritical(a ptg.Analysis) {
	cp := &CritPath{
		Length:     a.CriticalPath,
		TotalWork:  a.TotalWork,
		MaxSpeedup: a.MaxSpeedup,
		Tasks:      len(a.Path),
	}
	byClass := map[string]*PathShare{}
	for i, ref := range a.Path {
		s := byClass[ref.Class]
		if s == nil {
			s = &PathShare{Class: ref.Class}
			byClass[ref.Class] = s
		}
		s.Tasks++
		if i < len(a.PathDur) {
			s.Time += a.PathDur[i]
		}
	}
	names := make([]string, 0, len(byClass))
	for n := range byClass {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := *byClass[n]
		if cp.Length > 0 {
			s.Frac = float64(s.Time) / float64(cp.Length)
		}
		cp.Shares = append(cp.Shares, s)
	}
	// Largest contributor first.
	sort.SliceStable(cp.Shares, func(i, j int) bool { return cp.Shares[i].Time > cp.Shares[j].Time })
	p.Crit = cp
}

// WorstWorkers returns up to n workers ordered by longest bubble,
// breaking ties by total idle — the rows worth printing when a machine
// has hundreds of workers.
func (p *Profile) WorstWorkers(n int) []WorkerProfile {
	ws := append([]WorkerProfile(nil), p.Workers...)
	sort.SliceStable(ws, func(i, j int) bool {
		if ws[i].LongestBubble != ws[j].LongestBubble {
			return ws[i].LongestBubble > ws[j].LongestBubble
		}
		return ws[i].Idle > ws[j].Idle
	})
	if len(ws) > n {
		ws = ws[:n]
	}
	return ws
}

// WriteJSON exports profiles as indented JSON, the regression-diffing
// format of cmd/ccsim profile -out.
func WriteJSON(w io.Writer, profiles []*Profile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(profiles)
}
