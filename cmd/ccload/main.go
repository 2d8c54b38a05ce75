// Command ccload load-tests the ccsimd service: N concurrent clients
// drive a mixed workload of CCSD jobs (every combination of the given
// presets and variants, repeated round-robin) against a server, then
// report throughput, cache hit-rate, cold vs cached latency percentiles
// (p50/p95/p99), the inspection+planning cost the cache sheds, and an
// energy-agreement check across every job sharing a plan key.
//
// Usage:
//
//	ccload [-addr host:port] [-clients N] [-jobs N]
//	       [-presets water,benzene] [-variants v4,v5] [-workers N]
//
// With no -addr it starts an in-process server on a loopback port
// (sized by -max-concurrent / -queue-depth / -cache-cap) so a single
// command reproduces the committed EXPERIMENTS.md run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/serve"
)

// jobOutcome is one client-observed job completion.
type jobOutcome struct {
	key       string
	latency   time.Duration
	cacheHit  bool
	energy    float64
	inspectNs int64
	planNs    int64
	execNs    int64
	retries   int
}

// client is the JSON-over-HTTP driver shared by the worker goroutines.
type client struct {
	base string
	hc   *http.Client
}

// runJob submits one spec (retrying 429s with the server's Retry-After
// hint, capped to keep the harness responsive) and polls it to
// completion.
func (c *client) runJob(spec serve.JobSpec, key string) (jobOutcome, error) {
	out := jobOutcome{key: key}
	body, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	start := time.Now()
	var st serve.JobStatus
	for {
		resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return out, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			ra := resp.Header.Get("Retry-After")
			resp.Body.Close()
			out.retries++
			time.Sleep(backoff(ra))
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			resp.Body.Close()
			return out, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return out, err
		}
		break
	}
	for !st.State.Terminal() {
		time.Sleep(2 * time.Millisecond)
		resp, err := c.hc.Get(c.base + "/jobs/" + st.ID)
		if err != nil {
			return out, err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return out, err
		}
	}
	out.latency = time.Since(start)
	if st.State != serve.JobDone || st.Result == nil {
		return out, fmt.Errorf("job %s ended %s (%s)", st.ID, st.State, st.Error)
	}
	out.cacheHit = st.Result.CacheHit
	out.energy = st.Result.Energy
	out.inspectNs = st.Result.InspectNs
	out.planNs = st.Result.PlanNs
	out.execNs = st.Result.ExecNs
	return out, nil
}

// backoff converts a 429's Retry-After header into the sleep before the
// next submit attempt: the server's hint, capped at 2s to keep the
// harness responsive. The fixed 10ms sleep survives only as the
// fallback for an absent or unparsable header.
func backoff(retryAfter string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(retryAfter))
	if err != nil || secs < 1 {
		return 10 * time.Millisecond
	}
	d := time.Duration(secs) * time.Second
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// quantile returns the q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[i]
}

// summarize prints one latency line for a slice of outcomes.
func summarize(label string, outs []jobOutcome) {
	if len(outs) == 0 {
		fmt.Printf("  %-7s  (none)\n", label)
		return
	}
	lats := make([]time.Duration, len(outs))
	var frontNs int64
	for i, o := range outs {
		lats[i] = o.latency
		frontNs += o.inspectNs + o.planNs
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	fmt.Printf("  %-7s  n=%-4d p50=%-10v p95=%-10v p99=%-10v mean inspect+plan=%v\n",
		label, len(outs), quantile(lats, 0.50), quantile(lats, 0.95), quantile(lats, 0.99),
		time.Duration(frontNs/int64(len(outs))))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ccload: %v\n", err)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "", "server address; empty starts an in-process server")
	clients := flag.Int("clients", 4, "concurrent client goroutines")
	jobs := flag.Int("jobs", 24, "total jobs to submit")
	presets := flag.String("presets", "water,benzene", "comma-separated molecule presets")
	variants := flag.String("variants", "v4,v5", "comma-separated variants")
	workers := flag.Int("workers", 1, "runtime workers requested per job")
	maxConc := flag.Int("max-concurrent", 2, "in-process server: executor slots")
	queueDepth := flag.Int("queue-depth", 16, "in-process server: queue depth")
	cacheCap := flag.Int("cache-cap", 32, "in-process server: plan cache capacity")
	flag.Parse()
	if *clients < 1 || *jobs < 1 {
		fatal(fmt.Errorf("-clients and -jobs must be positive"))
	}

	// Build the mixed workload: the cross product of presets × variants,
	// cycled over the job count. Distinct keys = the product size, so
	// expected hit rate = 1 - keys/jobs.
	var specs []serve.JobSpec
	for _, p := range strings.Split(*presets, ",") {
		for _, v := range strings.Split(*variants, ",") {
			specs = append(specs, serve.JobSpec{Preset: strings.TrimSpace(p), Variant: strings.TrimSpace(v), Workers: *workers})
		}
	}
	if len(specs) == 0 {
		fatal(fmt.Errorf("empty workload"))
	}

	base := *addr
	var inproc *serve.Server
	if base == "" {
		inproc = serve.New(serve.Config{
			MaxConcurrent: *maxConc,
			QueueDepth:    *queueDepth,
			CacheCap:      *cacheCap,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		httpSrv := &http.Server{Handler: inproc.Handler()}
		go func() { _ = httpSrv.Serve(ln) }()
		defer httpSrv.Close()
		base = ln.Addr().String()
		fmt.Printf("ccload: in-process server on %s (executors %d, queue %d, cache %d)\n",
			base, *maxConc, *queueDepth, *cacheCap)
	}
	c := &client{base: "http://" + base, hc: &http.Client{Timeout: 5 * time.Minute}}

	fmt.Printf("ccload: %d jobs over %d clients, %d distinct plan keys (%s × %s)\n",
		*jobs, *clients, len(specs), *presets, *variants)

	var next atomic.Int64
	outcomes := make([]jobOutcome, *jobs)
	errs := make([]error, *jobs)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < *clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *jobs {
					return
				}
				spec := specs[i%len(specs)]
				key := spec.Preset + "/" + spec.Variant
				outcomes[i], errs[i] = c.runJob(spec, key)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	for i, err := range errs {
		if err != nil {
			fatal(fmt.Errorf("job %d: %w", i, err))
		}
	}

	// Partition and report.
	var cold, cached []jobOutcome
	var retries int
	byKey := map[string][]jobOutcome{}
	for _, o := range outcomes {
		if o.cacheHit {
			cached = append(cached, o)
		} else {
			cold = append(cold, o)
		}
		retries += o.retries
		byKey[o.key] = append(byKey[o.key], o)
	}
	hitRate := float64(len(cached)) / float64(len(outcomes))
	fmt.Printf("\nccload: %d jobs in %v — %.1f jobs/s, %d backpressure retries\n",
		len(outcomes), wall.Round(time.Millisecond), float64(len(outcomes))/wall.Seconds(), retries)
	fmt.Printf("cache: hit rate %.0f%% (%d hits / %d misses)\n", 100*hitRate, len(cached), len(cold))
	summarize("cold", cold)
	summarize("cached", cached)

	// Energy agreement: every job sharing a plan key must agree to a
	// relative ccsd.EnergyTol (they are bitwise identical under ordered
	// accumulation).
	worst := 0.0
	for key, outs := range byKey {
		for _, o := range outs[1:] {
			d := ccsd.EnergyRelDiff(o.energy, outs[0].energy)
			if d > worst {
				worst = d
			}
			if d > ccsd.EnergyTol {
				fatal(fmt.Errorf("energy mismatch on %s: %.15f vs %.15f", key, o.energy, outs[0].energy))
			}
		}
	}
	fmt.Printf("energies: cold vs cached agree per key (max relative diff = %.1e)\n", worst)

	// The cache contract: a hit must not pay for inspection or planning.
	for _, o := range cached {
		if o.inspectNs != 0 || o.planNs != 0 {
			fatal(fmt.Errorf("cached job on %s paid inspect=%dns plan=%dns", o.key, o.inspectNs, o.planNs))
		}
	}
	fmt.Println("cache-hit jobs paid zero inspection+planning time")

	if inproc != nil {
		inproc.Shutdown()
		st := inproc.Stats()
		fmt.Printf("server: accepted=%d rejected=%d cache hits=%d misses=%d evictions=%d\n",
			st.Accepted, st.Rejected, st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions)
	}
	if hitRate < 0.5 {
		fatal(fmt.Errorf("hit rate %.0f%% below the 50%% acceptance bar", 100*hitRate))
	}
}
