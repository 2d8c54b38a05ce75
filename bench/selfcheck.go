package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runChild runs one workload in a fresh process of this binary — the
// only way rss_mb_p50 means that workload's memory and nothing an
// earlier one left behind — and returns its output and parsed result.
func runChild(name string, o options) ([]byte, report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, report{}, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{
		"-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace,
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return out, report{}, fmt.Errorf("%s: child process: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return out, report{}, fmt.Errorf("%s: result line: %w", name, err)
	}
	return out, rep, nil
}

// declsFor returns the metrics a run in the given mode reports.
func declsFor(man *manifest, trace bool) []metricDecl {
	if trace {
		return man.PerLayer
	}
	return man.EndToEnd
}

// runAll runs every workload once, each in its own process, echoes
// their output and closes with one table of every metric by workload.
func runAll(root string, man *manifest, o options) error {
	printStamp(os.Stdout, root, "all", o)
	reports := make(map[string]report)
	for _, wl := range man.Workloads {
		out, rep, err := runChild(wl.Name, o)
		os.Stdout.Write(out)
		if err != nil {
			return err
		}
		reports[wl.Name] = rep
	}
	fmt.Printf("\n%-34s %-6s %-6s", "metric", "unit", "bound")
	for _, wl := range man.Workloads {
		fmt.Printf(" %14s", wl.Name)
	}
	fmt.Println()
	for _, d := range declsFor(man, o.trace) {
		bound := "-"
		if d.Bound > 0 {
			bound = strconv.FormatFloat(d.Bound, 'g', -1, 64)
		}
		fmt.Printf("%-34s %-6s %-6s", d.Name, d.Unit, bound)
		for _, wl := range man.Workloads {
			fmt.Printf(" %14.6g", reports[wl.Name].Metrics[d.Name].Value)
		}
		fmt.Println()
	}
	return nil
}

// selfCheck is the acceptance protocol run on one commit: two sets of
// `runs` untraced runs per workload, run r of either set on seed
// o.seed+r. For each end-to-end metric and workload it prints both
// medians, their relative difference, each set's quartile spread and
// the bound, and fails when the medians disagree by more than the bound
// or a spread (set-up time excepted, as in the contract) exceeds it.
func selfCheck(root string, man *manifest, o options, runs int) error {
	o.trace = false
	printStamp(os.Stdout, root, "selfcheck", o)
	// values[set][workload][metric] lists one value per run.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for _, wl := range man.Workloads {
			values[set][wl.Name] = make(map[string][]float64)
			for r := 0; r < runs; r++ {
				ro := o
				ro.seed = o.seed + uint64(r)
				_, rep, err := runChild(wl.Name, ro)
				if err != nil {
					return err
				}
				if !rep.Correct {
					return fmt.Errorf("%s seed %d: %d of %d jobs failed", wl.Name, ro.seed, rep.Failed, rep.Attempted)
				}
				for name, m := range rep.Metrics {
					values[set][wl.Name][name] = append(values[set][wl.Name][name], m.Value)
				}
				fmt.Printf("set %d %s seed %d: job_s_p50 %.6g s\n", set+1, wl.Name, ro.seed, rep.Metrics["job_s_p50"].Value)
			}
		}
	}

	fmt.Printf("\n%-14s %-16s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median 1", "median 2", "diff", "spread 1", "spread 2", "bound", "verdict")
	var bad int
	for _, wl := range man.Workloads {
		for _, d := range man.EndToEnd {
			a, b := values[0][wl.Name][d.Name], values[1][wl.Name][d.Name]
			diff := math.Abs(median(b)-median(a)) / math.Abs(median(a))
			sa, sb := quartileSpread(a), quartileSpread(b)
			// Set-up time is exempt from the spread rule, as in the contract.
			spread := max(sa, sb)
			if d.Name == "setup_s" {
				spread = 0
			}
			verdict := "ok"
			switch {
			case diff > d.Bound:
				verdict = "MEDIANS DISAGREE"
				bad++
			case spread > d.Bound:
				verdict = "SPREAD OVER BOUND"
				bad++
			case spread > d.Bound/3:
				verdict = "ok, but spread over a third of the bound"
			}
			fmt.Printf("%-14s %-16s %12.6g %12.6g %8.4f %8.4f %8.4f %6.2f  %s\n",
				wl.Name, d.Name, median(a), median(b), diff, sa, sb, d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric/workload pairs outside their bounds", bad)
	}
	return nil
}
