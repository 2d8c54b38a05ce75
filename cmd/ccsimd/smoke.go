package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"parsec/internal/serve"
)

// smokeClient is a minimal JSON client over the real HTTP surface.
type smokeClient struct {
	base string
	hc   *http.Client
}

// submit posts a job spec and decodes the accepted status; a 429 is
// reported through the bool.
func (c *smokeClient) submit(spec serve.JobSpec) (serve.JobStatus, bool, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return serve.JobStatus{}, false, err
	}
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.JobStatus{}, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		return serve.JobStatus{}, true, nil
	}
	if resp.StatusCode != http.StatusAccepted {
		return serve.JobStatus{}, false, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	var st serve.JobStatus
	return st, false, json.NewDecoder(resp.Body).Decode(&st)
}

// submitRA is submit plus the Retry-After header observed on a 429.
func (c *smokeClient) submitRA(spec serve.JobSpec) (serve.JobStatus, bool, string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return serve.JobStatus{}, false, "", err
	}
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.JobStatus{}, false, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		return serve.JobStatus{}, true, resp.Header.Get("Retry-After"), nil
	}
	if resp.StatusCode != http.StatusAccepted {
		return serve.JobStatus{}, false, "", fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	var st serve.JobStatus
	return st, false, "", json.NewDecoder(resp.Body).Decode(&st)
}

// status fetches a job's current status without waiting.
func (c *smokeClient) status(id string) (serve.JobStatus, error) {
	resp, err := c.hc.Get(c.base + "/jobs/" + id)
	if err != nil {
		return serve.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.JobStatus{}, fmt.Errorf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st serve.JobStatus
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// wait polls a job until it is terminal.
func (c *smokeClient) wait(id string) (serve.JobStatus, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := c.hc.Get(c.base + "/jobs/" + id)
		if err != nil {
			return serve.JobStatus{}, err
		}
		var st serve.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return serve.JobStatus{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return serve.JobStatus{}, fmt.Errorf("job %s never finished", id)
}

// cancel requests cancellation.
func (c *smokeClient) cancel(id string) error {
	resp, err := c.hc.Post(c.base+"/jobs/"+id+"/cancel", "application/json", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("cancel: HTTP %d", resp.StatusCode)
	}
	return nil
}

// stats fetches /stats.
func (c *smokeClient) stats() (serve.Stats, error) {
	resp, err := c.hc.Get(c.base + "/stats")
	if err != nil {
		return serve.Stats{}, err
	}
	defer resp.Body.Close()
	var st serve.Stats
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// runSmoke is the CI acceptance scenario: cold benzene job, identical
// cached job, a canceled job, queue-full backpressure, and a draining
// shutdown — all over a real listener, intended to run under -race.
func runSmoke() error {
	s := serve.New(serve.Config{MaxConcurrent: 1, QueueDepth: 1, RetryAfter: time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer("", s.Handler())
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()

	c := &smokeClient{base: "http://" + ln.Addr().String(), hc: &http.Client{Timeout: 30 * time.Second}}
	benzene := serve.JobSpec{Preset: "benzene", Variant: "v5"}

	// 1. Cold run: compiles the plan.
	st1, _, err := c.submit(benzene)
	if err != nil {
		return err
	}
	st1, err = c.wait(st1.ID)
	if err != nil {
		return err
	}
	if st1.State != serve.JobDone || st1.Result == nil {
		return fmt.Errorf("cold job: state %s, want done", st1.State)
	}
	if st1.Result.CacheHit {
		return fmt.Errorf("cold job claims a cache hit")
	}
	fmt.Printf("smoke: cold   %s E=%.12f inspect+plan=%v exec=%v\n", st1.ID, st1.Result.Energy,
		time.Duration(st1.Result.InspectNs+st1.Result.PlanNs), time.Duration(st1.Result.ExecNs))

	// 2. Identical job: must hit the cache and skip inspection+planning.
	st2, _, err := c.submit(benzene)
	if err != nil {
		return err
	}
	if st2, err = c.wait(st2.ID); err != nil {
		return err
	}
	if st2.State != serve.JobDone || st2.Result == nil || !st2.Result.CacheHit {
		return fmt.Errorf("repeat job: state %s cacheHit %v, want done hit", st2.State, st2.Result != nil && st2.Result.CacheHit)
	}
	if st2.Result.InspectNs != 0 || st2.Result.PlanNs != 0 {
		return fmt.Errorf("cached job still paid inspect=%dns plan=%dns", st2.Result.InspectNs, st2.Result.PlanNs)
	}
	if st2.Result.Energy != st1.Result.Energy {
		return fmt.Errorf("cached energy %.15f != cold energy %.15f", st2.Result.Energy, st1.Result.Energy)
	}
	fmt.Printf("smoke: cached %s E=%.12f exec=%v (inspection+planning skipped)\n",
		st2.ID, st2.Result.Energy, time.Duration(st2.Result.ExecNs))

	// 3. Cancellation: submit and cancel immediately — benzene takes
	// long enough that the cancel always lands before completion.
	st3, _, err := c.submit(benzene)
	if err != nil {
		return err
	}
	if err := c.cancel(st3.ID); err != nil {
		return err
	}
	if st3, err = c.wait(st3.ID); err != nil {
		return err
	}
	if st3.State != serve.JobCanceled {
		return fmt.Errorf("canceled job: state %s, want canceled", st3.State)
	}
	fmt.Printf("smoke: canceled %s\n", st3.ID)

	// 4. Backpressure: occupy the executor, fill the single queue slot,
	// and check the next submission bounces with 429.
	blocker, _, err := c.submit(benzene)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats, err := c.stats()
		if err != nil {
			return err
		}
		if stats.Running > 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("blocker never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, rejected, err := c.submit(benzene); err != nil || rejected {
		return fmt.Errorf("queue-filling submit: rejected=%v err=%v", rejected, err)
	}
	if _, rejected, err := c.submit(benzene); err != nil || !rejected {
		return fmt.Errorf("overflow submit: rejected=%v err=%v, want 429", rejected, err)
	}
	fmt.Println("smoke: full queue returned 429")

	// 5. Shutdown drains everything still in flight.
	s.Shutdown()
	final, err := s.Job(blocker.ID)
	if err != nil {
		return err
	}
	if !final.State.Terminal() {
		return fmt.Errorf("blocker state %s after shutdown, want terminal", final.State)
	}
	stats := s.Stats()
	if stats.Queued != 0 || stats.Running != 0 {
		return fmt.Errorf("stats after shutdown: %+v, want empty queue", stats)
	}
	fmt.Printf("smoke: shutdown drained (done=%d canceled=%d rejected=%d, cache hits=%d misses=%d)\n",
		stats.Done, stats.Canceled, stats.Rejected, stats.Cache.Hits, stats.Cache.Misses)
	return nil
}
