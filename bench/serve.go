package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"parsec/internal/serve"
)

// The service workload's traffic: water-sized jobs over more distinct
// plan keys than the plan cache holds, drawn with a Zipf skew so a few
// keys are hot and the tail keeps evicting — a real hit ratio below 1.
const (
	serveKeys     = 48
	serveCacheCap = 32
	serveSkew     = 1.1
	servePoll     = 500 * time.Microsecond
	serveMixLen   = 1 << 14 // pre-drawn job sequence; longer than any run
)

// serveOutcome is one job as its client saw it.
type serveOutcome struct {
	job                   int
	latency, submit, wait float64 // seconds
	res                   serve.JobResult
}

// serveInst is the service workload: a serve.Server with its journal
// on, behind a real HTTP listener, driven by closed-loop clients. One
// job runs from POST /jobs until a poll of GET /jobs/{id} sees a
// terminal state.
type serveInst struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	hc     *http.Client
	base   string
	dir    string

	keys   []problem
	bodies [][]byte // submit body per key
	mix    []int    // key index of job i, at i % len(mix)

	mu       sync.Mutex
	first    map[int]uint64 // bits of the first energy seen per key
	outcomes []serveOutcome
}

func setupServe(env setupEnv) (instance, error) {
	x := &serveInst{first: make(map[int]uint64), served: make(chan struct{})}
	for k := 0; k < serveKeys; k++ {
		p, err := newProblem(waterShape, env.seed*64+uint64(k))
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(serve.JobSpec{Variant: "v5", Custom: &serve.CustomSystem{
			Name: p.shape.name, NOccupied: p.shape.occ, NVirtual: p.shape.virt,
			TileTarget: p.shape.tile, NIrreps: p.shape.irreps, Seed: p.seed,
		}})
		if err != nil {
			return nil, err
		}
		x.keys = append(x.keys, p)
		x.bodies = append(x.bodies, body)
	}
	rng := rand.New(rand.NewSource(int64(env.seed)))
	hot := rng.Perm(serveKeys) // which keys are the hot ones differs per seed
	zipf := rand.NewZipf(rng, serveSkew, 1, serveKeys-1)
	x.mix = make([]int, serveMixLen)
	for i := range x.mix {
		x.mix[i] = hot[zipf.Uint64()]
	}

	var err error
	if x.dir, err = os.MkdirTemp(env.outDir, "serve-"); err != nil {
		return nil, err
	}
	x.srv, err = serve.Open(serve.Config{DataDir: x.dir, MaxConcurrent: 2, CacheCap: serveCacheCap})
	if err != nil {
		os.RemoveAll(x.dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		x.srv.Shutdown()
		os.RemoveAll(x.dir)
		return nil, err
	}
	x.base = "http://" + ln.Addr().String()
	x.hs = &http.Server{Handler: x.srv.Handler()}
	go func() {
		defer close(x.served)
		// Serve returns ErrServerClosed after Shutdown; any other error
		// surfaces as failed requests in the loop.
		_ = x.hs.Serve(ln)
	}()
	x.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}

	for i := 0; i < 4; i++ {
		// Warm-up jobs come from the far end of the sequence.
		if _, err := x.job(serveMixLen-1-i, 0, nil); err != nil {
			x.close()
			return nil, err
		}
	}
	x.outcomes = nil
	return x, nil
}

func (x *serveInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = x.hs.Shutdown(ctx) // on timeout the listener is closed all the same
	<-x.served
	x.srv.Shutdown()
	x.hc.CloseIdleConnections()
	os.RemoveAll(x.dir)
}

// roundTrip performs one request and decodes a JobStatus from a reply
// with the wanted status code.
func (x *serveInst) roundTrip(method, url string, body []byte, want int) (serve.JobStatus, error) {
	var st serve.JobStatus
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := x.hc.Do(req)
	if err != nil {
		return st, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return st, err
	}
	if resp.StatusCode != want {
		return st, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return st, json.Unmarshal(data, &st)
}

// job submits the i-th job of the sequence and polls it to completion.
// A refusal (429) is a failed job: the load is sized so that none
// should happen. The energy must match the key's serial reference and
// be bitwise equal to every earlier job of the same key, cold or cached.
func (x *serveInst) job(i, client int, tr *tracer) (int, error) {
	k := x.mix[i%len(x.mix)]
	t0 := time.Now()
	st, err := x.roundTrip(http.MethodPost, x.base+"/jobs", x.bodies[k], http.StatusAccepted)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	for !st.State.Terminal() {
		time.Sleep(servePoll)
		if st, err = x.roundTrip(http.MethodGet, x.base+"/jobs/"+st.ID, nil, http.StatusOK); err != nil {
			return 0, err
		}
	}
	t2 := time.Now()
	if st.State != serve.JobDone || st.Result == nil {
		return 0, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	res := *st.Result

	if tr != nil {
		// The phases are the server's own measurements (JobResult),
		// laid end to end from its submit time; self time of serve.wait
		// is then what no phase accounts for.
		root := tr.add("job", i, client, 0, t0, t2)
		tr.add("serve.submit", i, client, root, t0, t1)
		wait := tr.add("serve.wait", i, client, root, t1, t2)
		at := time.Unix(0, st.SubmittedNs)
		for _, ph := range []struct {
			name string
			ns   int64
		}{{"serve.queue", res.QueueNs}, {"serve.inspect", res.InspectNs}, {"serve.plan", res.PlanNs}, {"serve.exec", res.ExecNs}} {
			if ph.ns > 0 {
				tr.add(ph.name, i, client, wait, at, at.Add(time.Duration(ph.ns)))
			}
			at = at.Add(time.Duration(ph.ns))
		}
	}

	bits := math.Float64bits(res.Energy)
	x.mu.Lock()
	first, seen := x.first[k]
	if !seen {
		x.first[k] = bits
	}
	x.outcomes = append(x.outcomes, serveOutcome{
		job: i, latency: t2.Sub(t0).Seconds(), submit: t1.Sub(t0).Seconds(), wait: t2.Sub(t1).Seconds(), res: res,
	})
	x.mu.Unlock()
	if seen && first != bits {
		return 0, fmt.Errorf("job %s: energy %.17g of key %d is not bitwise equal to its first run's %.17g",
			st.ID, res.Energy, k, math.Float64frombits(first))
	}
	return res.Tasks, x.keys[k].check(res.Energy)
}

// layers reports the serve layer over the jobs of undisturbed rounds:
// the client-side split of a job's latency, the four phases JobResult carries, the plan cache's counters
// from serve.Stats, and the journal's cost.
func (x *serveInst) layers(lc *layerCtx) error {
	m := lc.m
	var submit, wait, queue, inspect, plan, exec, unaccounted, tasks, cold, cached []float64
	for _, o := range x.outcomes {
		if !lc.quietJob[o.job] {
			continue
		}
		r := o.res
		phases := float64(r.QueueNs+r.InspectNs+r.PlanNs+r.ExecNs) / 1e9
		submit = append(submit, o.submit)
		wait = append(wait, o.wait)
		queue = append(queue, float64(r.QueueNs)/1e9)
		inspect = append(inspect, float64(r.InspectNs)/1e9)
		plan = append(plan, float64(r.PlanNs)/1e9)
		exec = append(exec, float64(r.ExecNs)/1e9)
		unaccounted = append(unaccounted, o.latency-phases)
		tasks = append(tasks, float64(r.Tasks))
		if r.CacheHit {
			cached = append(cached, o.latency)
		} else {
			cold = append(cold, o.latency)
		}
	}
	m.set("ptg.instances", mean(tasks))
	m.set("serve.submit_s_p50", median(submit))
	m.set("serve.wait_s_p50", median(wait))
	m.set("serve.queue_s_mean", mean(queue))
	m.set("serve.inspect_s_mean", mean(inspect))
	m.set("serve.plan_s_mean", mean(plan))
	m.set("serve.exec_s_mean", mean(exec))
	m.set("serve.unaccounted_s_mean", mean(unaccounted))
	m.set("serve.cold_job_s_p50", median(cold))
	m.set("serve.cached_job_s_p50", median(cached))

	st := x.srv.Stats()
	m.set("serve.cache_hit_ratio", float64(st.Cache.Hits)/float64(st.Cache.Hits+st.Cache.Misses))
	m.set("serve.rejected_429", float64(st.Rejected))
	fi, err := os.Stat(filepath.Join(x.dir, "jobs.journal"))
	if err != nil {
		return err
	}
	m.set("serve.journal_bytes_per_job", float64(fi.Size())/float64(st.Accepted))
	us, err := journalAppendProbe(x.dir, 2000)
	if err != nil {
		return err
	}
	m.set("serve.journal_append_us_p50", us)
	return nil
}
