package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"parsec/internal/obsv"
)

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

// WriteProfile renders one run's observability profile — per-class
// duration histograms, per-worker idle bubbles, communication volumes,
// critical-path attribution, fault recovery and slowdown — as the aligned
// text sections behind ccsim profile. Sections the profile has nothing
// for are omitted; at most maxWorkers per-worker idle rows are printed
// (the worst ones), while the aggregate idle line covers every worker.
func WriteProfile(w io.Writer, p *obsv.Profile, maxWorkers int) error {
	if _, err := fmt.Fprintf(w, "== %s: %d tasks over %s ==\n",
		p.Name, p.Tasks, fmtNS(p.Span)); err != nil {
		return err
	}

	if len(p.Classes) > 0 {
		header := fmt.Sprintf("%-10s %8s %10s %10s %10s %10s %11s",
			"class", "count", "p50", "p95", "p99", "max", "total")
		if _, err := fmt.Fprintf(w, "\ntask durations\n%s\n", header); err != nil {
			return err
		}
		if err := rule(w, len(header)); err != nil {
			return err
		}
		for _, r := range p.Classes {
			if _, err := fmt.Fprintf(w, "%-10s %8d %10s %10s %10s %10s %11s\n",
				r.Class, r.Count, fmtNS(r.P50), fmtNS(r.P95), fmtNS(r.P99),
				fmtNS(r.Max), fmtNS(r.Total)); err != nil {
				return err
			}
		}
	}

	if len(p.Workers) > 0 {
		if _, err := fmt.Fprintf(w,
			"\nidle: %d workers, total idle %s (mean frac %.1f%%), mean startup bubble %s\n",
			len(p.Workers), fmtNS(p.Idle.TotalIdle), 100*p.Idle.MeanIdleFrac,
			fmtNS(p.Idle.MeanStartup)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "worst bubble: %s on %s at t=%s\n",
			fmtNS(p.Idle.MaxBubble), p.Idle.MaxBubbleOwner, fmtNS(p.Idle.MaxBubbleAt)); err != nil {
			return err
		}
		// The time-to-first-class ramp is Fig 11's bubble in numbers.
		if r := p.Ramp; r != nil {
			if _, err := fmt.Fprintf(w,
				"time to first %s per worker: mean %s (%.1f%% of span), max %s (%.1f%%)\n",
				r.Class, fmtNS(r.Mean), 100*r.MeanFrac,
				fmtNS(r.Max), 100*r.MaxFrac); err != nil {
				return err
			}
		}
	}
	if worst := p.WorstWorkers(maxWorkers); len(worst) > 0 {
		header := fmt.Sprintf("%-10s %7s %10s %10s %10s %12s %12s",
			"worker", "tasks", "busy", "idle", "startup", "worst-bubble", "bubble-at")
		if _, err := fmt.Fprintln(w, header); err != nil {
			return err
		}
		if err := rule(w, len(header)); err != nil {
			return err
		}
		for _, r := range worst {
			if _, err := fmt.Fprintf(w, "%-10s %7d %10s %10s %10s %12s %12s\n",
				r.Name(), r.Tasks, fmtNS(r.Busy), fmtNS(r.Idle),
				fmtNS(r.StartupIdle), fmtNS(r.LongestBubble),
				fmtNS(r.BubbleStart)); err != nil {
				return err
			}
		}
	}

	if err := writeComm(w, p.Comm); err != nil {
		return err
	}

	if cp := p.Crit; cp != nil && len(cp.Shares) > 0 {
		if _, err := fmt.Fprintf(w,
			"\ncritical path: %s over %d tasks (total work %s, max speedup %.1fx)\n",
			fmtNS(cp.Length), cp.Tasks, fmtNS(cp.TotalWork),
			cp.MaxSpeedup); err != nil {
			return err
		}
		header := fmt.Sprintf("%-10s %7s %10s %7s", "class", "tasks", "time", "share")
		if _, err := fmt.Fprintln(w, header); err != nil {
			return err
		}
		if err := rule(w, len(header)); err != nil {
			return err
		}
		for _, r := range cp.Shares {
			if _, err := fmt.Fprintf(w, "%-10s %7d %10s %6.1f%%\n",
				r.Class, r.Tasks, fmtNS(r.Time), 100*r.Frac); err != nil {
				return err
			}
		}
	}

	if rc := p.Recov; rc != nil {
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

	// The slowdown section is meaningful even with an empty cause list: a
	// perturbed run that lost no time.
	if s := p.Slow; s != nil {
		if _, err := fmt.Fprintf(w,
			"\nslowdown vs fault-free: %s (baseline %s, perturbed %s)\n",
			fmtSignedNS(s.Loss), fmtNS(s.BaselineSpan), fmtNS(p.Span)); err != nil {
			return err
		}
		if len(s.Causes) > 0 {
			header := fmt.Sprintf("%-18s %10s %14s", "cause", "charged", "share-of-loss")
			if _, err := fmt.Fprintln(w, header); err != nil {
				return err
			}
			if err := rule(w, len(header)); err != nil {
				return err
			}
			for _, r := range s.Causes {
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

// writeComm renders the communication-volume section: one line per
// operation kind that moved anything (ops and payload bytes), then the
// dataflow bytes delivered to each consumer class.
func writeComm(w io.Writer, c *obsv.CommStats) error {
	if c == nil {
		return nil
	}
	type row struct {
		label      string
		ops, bytes int64
	}
	var rows []row
	for _, r := range []row{
		{"GET", c.GetOps, c.GetBytes},
		{"ACC", c.AccOps, c.AccBytes},
		{"net total", c.Transfers, c.TotalBytes},
	} {
		if r.ops > 0 || r.bytes > 0 {
			rows = append(rows, r)
		}
	}
	classes := make([]string, 0, len(c.ByClass))
	for n := range c.ByClass {
		classes = append(classes, n)
	}
	sort.Strings(classes)
	for _, n := range classes {
		rows = append(rows, row{label: "net to " + n, bytes: c.ByClass[n]})
	}
	if len(rows) == 0 {
		return nil
	}
	header := fmt.Sprintf("%-14s %10s %12s", "comm", "ops", "bytes")
	if _, err := fmt.Fprintf(w, "\ncommunication volume\n%s\n", header); err != nil {
		return err
	}
	if err := rule(w, len(header)); err != nil {
		return err
	}
	for _, r := range rows {
		ops := "-"
		if r.ops > 0 {
			ops = fmt.Sprint(r.ops)
		}
		if _, err := fmt.Fprintf(w, "%-14s %10s %12s\n",
			r.label, ops, fmtBytes(r.bytes)); err != nil {
			return err
		}
	}
	return nil
}
