package metrics

import (
	"fmt"
	"io"
	"strings"
)

// HistRow is one task class's duration histogram summary (nanoseconds).
// Plain values mirror internal/obsv.ClassProfile so this package stays a
// formatter with no dependency on the observability layer.
type HistRow struct {
	Class string
	Count int64
	P50   int64
	P95   int64
	P99   int64
	Max   int64
	Total int64
}

// IdleRow is one worker's idle-gap summary (nanoseconds), mirroring
// internal/obsv.WorkerProfile.
type IdleRow struct {
	Worker        string // e.g. "n0/t3"
	Tasks         int
	Busy          int64
	Idle          int64
	StartupIdle   int64
	LongestBubble int64
	BubbleStart   int64
}

// CommRow is one line of the communication-volume section: an operation
// kind or task class with its op count and payload bytes.
type CommRow struct {
	Label string
	Ops   int64
	Bytes int64
}

// RecoveryStats mirrors internal/obsv.Recovery: the counters of what
// the comm threads and scheduler did to absorb injected faults.
type RecoveryStats struct {
	Retries         int
	Drops           int
	AckDrops        int
	DupSuppressed   int
	BackoffTime     int64
	RetransmitBytes int64
	Redispatches    int
	RedispatchBytes int64
}

// SlowdownRow is one injected cause's charge against a perturbed run's
// loss, mirroring internal/obsv.SlowdownCause.
type SlowdownRow struct {
	Cause string
	Time  int64
	Frac  float64
}

// PathRow is one class's share of the critical path, mirroring
// internal/obsv.PathShare.
type PathRow struct {
	Class string
	Tasks int
	Time  int64
	Frac  float64
}

// ProfileReport renders one run's observability profile — per-class
// duration histograms, per-worker idle bubbles, communication volumes,
// and critical-path attribution — as the aligned text sections behind
// ccsim profile.
type ProfileReport struct {
	Title string
	Span  int64 // trace span (ns)
	Tasks int

	Hist []HistRow

	Idle         []IdleRow // typically the worst few workers
	IdleWorkers  int       // total workers behind the summary line
	TotalIdle    int64
	MeanIdleFrac float64
	MeanStartup  int64
	MaxBubble    int64
	MaxBubbleAt  int64
	MaxBubbleBy  string

	// The time-to-first-RampClass ramp (Fig 11's bubble); omitted when
	// RampClass is empty.
	RampClass    string
	RampMean     int64
	RampMax      int64
	RampMeanFrac float64
	RampMaxFrac  float64

	Comm []CommRow

	Path       []PathRow
	CritLength int64
	TotalWork  int64
	MaxSpeedup float64

	// Recovery renders the fault-recovery section when non-nil.
	Recovery *RecoveryStats

	// Slowdown attribution against a fault-free baseline; rendered only
	// when SlowdownShown is set (the section is meaningful even with an
	// empty cause list, e.g. a perturbed run that lost no time).
	SlowdownShown bool
	BaselineSpan  int64
	SlowdownLoss  int64
	Slowdown      []SlowdownRow
}

// fmtNS renders a nanosecond quantity with a unit chosen for legibility.
func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// fmtBytes renders a byte quantity with a binary-ish decimal unit (the
// shared FormatBytes, aliased for brevity at the call sites).
func fmtBytes(b int64) string { return FormatBytes(b) }

// fmtSignedNS is fmtNS with an explicit sign for deltas.
func fmtSignedNS(ns int64) string {
	if ns < 0 {
		return "-" + fmtNS(-ns)
	}
	return "+" + fmtNS(ns)
}

func rule(w io.Writer, n int) error {
	_, err := fmt.Fprintln(w, strings.Repeat("-", n))
	return err
}

// WriteTable renders the profile. Sections with no rows are omitted.
func (p *ProfileReport) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %d tasks over %s ==\n",
		p.Title, p.Tasks, fmtNS(p.Span)); err != nil {
		return err
	}

	if len(p.Hist) > 0 {
		header := fmt.Sprintf("%-10s %8s %10s %10s %10s %10s %11s",
			"class", "count", "p50", "p95", "p99", "max", "total")
		if _, err := fmt.Fprintf(w, "\ntask durations\n%s\n", header); err != nil {
			return err
		}
		if err := rule(w, len(header)); err != nil {
			return err
		}
		for _, r := range p.Hist {
			if _, err := fmt.Fprintf(w, "%-10s %8d %10s %10s %10s %10s %11s\n",
				r.Class, r.Count, fmtNS(r.P50), fmtNS(r.P95), fmtNS(r.P99),
				fmtNS(r.Max), fmtNS(r.Total)); err != nil {
				return err
			}
		}
	}

	if p.IdleWorkers > 0 {
		if _, err := fmt.Fprintf(w,
			"\nidle: %d workers, total idle %s (mean frac %.1f%%), mean startup bubble %s\n",
			p.IdleWorkers, fmtNS(p.TotalIdle), 100*p.MeanIdleFrac,
			fmtNS(p.MeanStartup)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "worst bubble: %s on %s at t=%s\n",
			fmtNS(p.MaxBubble), p.MaxBubbleBy, fmtNS(p.MaxBubbleAt)); err != nil {
			return err
		}
		if p.RampClass != "" {
			if _, err := fmt.Fprintf(w,
				"time to first %s per worker: mean %s (%.1f%% of span), max %s (%.1f%%)\n",
				p.RampClass, fmtNS(p.RampMean), 100*p.RampMeanFrac,
				fmtNS(p.RampMax), 100*p.RampMaxFrac); err != nil {
				return err
			}
		}
	}
	if len(p.Idle) > 0 {
		header := fmt.Sprintf("%-10s %7s %10s %10s %10s %12s %12s",
			"worker", "tasks", "busy", "idle", "startup", "worst-bubble", "bubble-at")
		if _, err := fmt.Fprintln(w, header); err != nil {
			return err
		}
		if err := rule(w, len(header)); err != nil {
			return err
		}
		for _, r := range p.Idle {
			if _, err := fmt.Fprintf(w, "%-10s %7d %10s %10s %10s %12s %12s\n",
				r.Worker, r.Tasks, fmtNS(r.Busy), fmtNS(r.Idle),
				fmtNS(r.StartupIdle), fmtNS(r.LongestBubble),
				fmtNS(r.BubbleStart)); err != nil {
				return err
			}
		}
	}

	if len(p.Comm) > 0 {
		header := fmt.Sprintf("%-14s %10s %12s", "comm", "ops", "bytes")
		if _, err := fmt.Fprintf(w, "\ncommunication volume\n%s\n", header); err != nil {
			return err
		}
		if err := rule(w, len(header)); err != nil {
			return err
		}
		for _, r := range p.Comm {
			ops := "-"
			if r.Ops > 0 {
				ops = fmt.Sprint(r.Ops)
			}
			if _, err := fmt.Fprintf(w, "%-14s %10s %12s\n",
				r.Label, ops, fmtBytes(r.Bytes)); err != nil {
				return err
			}
		}
	}

	if len(p.Path) > 0 {
		if _, err := fmt.Fprintf(w,
			"\ncritical path: %s over %d tasks (total work %s, max speedup %.1fx)\n",
			fmtNS(p.CritLength), pathTasks(p.Path), fmtNS(p.TotalWork),
			p.MaxSpeedup); err != nil {
			return err
		}
		header := fmt.Sprintf("%-10s %7s %10s %7s", "class", "tasks", "time", "share")
		if _, err := fmt.Fprintln(w, header); err != nil {
			return err
		}
		if err := rule(w, len(header)); err != nil {
			return err
		}
		for _, r := range p.Path {
			if _, err := fmt.Fprintf(w, "%-10s %7d %10s %6.1f%%\n",
				r.Class, r.Tasks, fmtNS(r.Time), 100*r.Frac); err != nil {
				return err
			}
		}
	}

	if rc := p.Recovery; rc != nil {
		if _, err := fmt.Fprintf(w,
			"\nfault recovery\nretries %d (%d payload drops, %d lost acks), %d duplicates suppressed\n",
			rc.Retries, rc.Drops, rc.AckDrops, rc.DupSuppressed); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "backoff %s, retransmitted %s\n",
			fmtNS(rc.BackoffTime), fmtBytes(rc.RetransmitBytes)); err != nil {
			return err
		}
		if rc.Redispatches > 0 {
			if _, err := fmt.Fprintf(w, "re-dispatch: %d tasks migrated off stragglers, %s of inputs moved\n",
				rc.Redispatches, fmtBytes(rc.RedispatchBytes)); err != nil {
				return err
			}
		}
	}

	if p.SlowdownShown {
		if _, err := fmt.Fprintf(w,
			"\nslowdown vs fault-free: %s (baseline %s, perturbed %s)\n",
			fmtSignedNS(p.SlowdownLoss), fmtNS(p.BaselineSpan), fmtNS(p.Span)); err != nil {
			return err
		}
		if len(p.Slowdown) > 0 {
			header := fmt.Sprintf("%-18s %10s %14s", "cause", "charged", "share-of-loss")
			if _, err := fmt.Fprintln(w, header); err != nil {
				return err
			}
			if err := rule(w, len(header)); err != nil {
				return err
			}
			for _, r := range p.Slowdown {
				share := "-"
				if r.Frac > 0 {
					share = fmt.Sprintf("%.1f%%", 100*r.Frac)
				}
				if _, err := fmt.Fprintf(w, "%-18s %10s %14s\n",
					r.Cause, fmtNS(r.Time), share); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func pathTasks(rows []PathRow) int {
	n := 0
	for _, r := range rows {
		n += r.Tasks
	}
	return n
}
