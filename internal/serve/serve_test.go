package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/molecule"
	"parsec/internal/obsv"
	"parsec/internal/tce"
)

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return JobStatus{}
}

// TestServerColdThenCachedEnergy runs the same water job twice: the
// second must be a cache hit with zero inspection+planning time, and
// both energies must match each other bitwise and the serial reference
// to 1e-12.
func TestServerColdThenCachedEnergy(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer s.Shutdown()

	spec := JobSpec{Preset: "water", Variant: "v5"}
	st1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st1 = waitTerminal(t, s, st1.ID)
	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2 = waitTerminal(t, s, st2.ID)

	if st1.State != JobDone || st2.State != JobDone {
		t.Fatalf("states = %s, %s, want done", st1.State, st2.State)
	}
	r1, r2 := st1.Result, st2.Result
	if r1.CacheHit {
		t.Error("first job reported a cache hit")
	}
	if !r2.CacheHit {
		t.Error("second job missed the cache")
	}
	if r1.InspectNs <= 0 || r1.PlanNs < 0 {
		t.Errorf("cold job phases: inspect=%d plan=%d, want positive inspect", r1.InspectNs, r1.PlanNs)
	}
	if r2.InspectNs != 0 || r2.PlanNs != 0 {
		t.Errorf("cached job reports inspect=%d plan=%d, want 0/0", r2.InspectNs, r2.PlanNs)
	}
	if r1.Energy != r2.Energy {
		t.Errorf("cold energy %.15f != cached energy %.15f", r1.Energy, r2.Energy)
	}
	ref := ccsd.ReferenceEnergy(tce.Inspect(tce.T2_7(molecule.Water631G()), nil))
	if d := ccsd.EnergyRelDiff(r1.Energy, ref); d > ccsd.EnergyTol {
		t.Errorf("energy %.15f vs reference %.15f: relative diff %.3e > %g", r1.Energy, ref, d, ccsd.EnergyTol)
	}
}

// TestServerBackpressure fills the admission queue while the only
// executor is held, and checks the overflow submission fails fast with
// ErrQueueFull, then succeeds once the queue drains.
func TestServerBackpressure(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	s.hookJobStart = func(*job) { <-gate }
	defer s.Shutdown()

	spec := JobSpec{Preset: "water"}
	// First fills the executor (after it leaves the queue), second
	// fills the queue slot. The executor pulls the first job off the
	// channel before blocking in the hook, so give it a moment.
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning := func(id string) {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if st, _ := s.Job(id); st.State == JobRunning {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("job %s never started", id)
	}
	waitRunning(first.ID)
	if _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	close(gate)
	waitTerminal(t, s, first.ID)
	if _, err := s.Submit(spec); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestServerCancelQueued cancels a job while it waits in the queue; it
// must terminate as canceled without executing.
func TestServerCancelQueued(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{MaxConcurrent: 1, QueueDepth: 4})
	s.hookJobStart = func(*job) {
		select {
		case <-gate:
		case <-time.After(10 * time.Second):
		}
	}
	defer s.Shutdown()

	blocker, err := s.Submit(JobSpec{Preset: "water"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(JobSpec{Preset: "water"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if st := waitTerminal(t, s, queued.ID); st.State != JobCanceled {
		t.Fatalf("queued job state = %s, want canceled", st.State)
	}
	if st := waitTerminal(t, s, blocker.ID); st.State != JobDone {
		t.Fatalf("blocker state = %s, want done", st.State)
	}
	if prof, _ := s.Profile(queued.ID); prof != nil {
		t.Error("canceled job has a profile")
	}
}

// TestServerCancelRunning cancels a benzene job right after it starts
// executing; the run must halt early, the job must end canceled, and
// the server must stay healthy for subsequent jobs (the canceled run's
// scratch shards were drained by the runtime).
func TestServerCancelRunning(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	s := New(Config{MaxConcurrent: 1})
	s.hookJobStart = func(*job) { once.Do(func() { close(started) }) }
	defer s.Shutdown()

	st, err := s.Submit(JobSpec{Preset: "benzene", Variant: "v5"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if st = waitTerminal(t, s, st.ID); st.State != JobCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}

	// The server still completes fresh work after the cancellation.
	after, err := s.Submit(JobSpec{Preset: "water"})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, after.ID); st.State != JobDone {
		t.Fatalf("post-cancel job state = %s, want done", st.State)
	}
}

// TestServerShutdownDrains submits several jobs and shuts down
// immediately: every accepted job must reach a terminal state, and
// post-shutdown submits must be refused.
func TestServerShutdownDrains(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, QueueDepth: 8})
	var ids []string
	for i := 0; i < 5; i++ {
		st, err := s.Submit(JobSpec{Preset: "water", Variant: "v4"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	s.Shutdown()
	for _, id := range ids {
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobDone {
			t.Errorf("job %s state = %s after shutdown, want done", id, st.State)
		}
	}
	if _, err := s.Submit(JobSpec{Preset: "water"}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown err = %v, want ErrShuttingDown", err)
	}
}

// TestHTTPLifecycle drives the full HTTP surface end to end: submit,
// poll status, fetch result and profile, check stats and cancel and
// backpressure responses.
func TestHTTPLifecycle(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 4})
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.Post(ts.URL+path, "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		_, _ = out.ReadFrom(resp.Body)
		return resp, out.Bytes()
	}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		_, _ = out.ReadFrom(resp.Body)
		return resp, out.Bytes()
	}

	// Submit a water job and poll it to completion.
	resp, body := post("/jobs", JobSpec{Preset: "water", Variant: "v5"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d body %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !st.State.Terminal() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		_, body = get("/jobs/" + st.ID)
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != JobDone {
		t.Fatalf("job state = %s, want done", st.State)
	}

	// Result and profile endpoints.
	resp, body = get("/jobs/" + st.ID + "/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Energy == 0 || res.Tasks == 0 {
		t.Fatalf("result = %+v, want energy and tasks", res)
	}
	resp, body = get("/jobs/" + st.ID + "/profile")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile status = %d", resp.StatusCode)
	}
	var prof obsv.Profile
	if err := json.Unmarshal(body, &prof); err != nil {
		t.Fatal(err)
	}
	if prof.Phase == nil || prof.Phase.CacheHit {
		t.Fatalf("profile phases = %+v, want cold-run phases", prof.Phase)
	}
	if prof.Tasks == 0 {
		t.Error("profile has no task events")
	}

	// Unknown job and bad submit bodies.
	if resp, _ := get("/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := post("/jobs", map[string]any{"preset": "unobtainium"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad preset status = %d, want 400", resp.StatusCode)
	}

	// Stats reflect the completed job.
	_, body = get("/stats")
	var stats Stats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Done < 1 || stats.Accepted < 1 || stats.Cache.Misses < 1 {
		t.Errorf("stats = %+v, want at least one done/accepted/miss", stats)
	}
}

// TestHTTPBackpressure429 checks the queue-full path over HTTP: 429
// with a Retry-After header.
func TestHTTPBackpressure429(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	s.hookJobStart = func(*job) { <-gate }
	defer s.Shutdown()
	defer close(gate)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func() *http.Response {
		t.Helper()
		body := bytes.NewBufferString(`{"preset":"water"}`)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	first := submit()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", first.StatusCode)
	}
	// Wait for the executor to pull the first job, then fill the queue.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Running == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if submit().StatusCode != http.StatusAccepted {
		t.Fatal("queue-filling submit rejected")
	}
	over := submit()
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", over.StatusCode)
	}
	if ra := over.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}
}

// TestHTTPSubmitBodyLimit: a submit body past maxSubmitBytes is refused
// with 413 and the usual JSON error before anything is admitted, and the
// limit does not touch an ordinary submit.
func TestHTTPSubmitBodyLimit(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 4})
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	huge := `{"preset":"` + strings.Repeat("a", 2*maxSubmitBytes) + `"}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB submit = %d, want 413", resp.StatusCode)
	}
	if err != nil || !strings.Contains(body["error"], "bad submit body") {
		t.Errorf("413 body = %v (decode: %v), want a JSON error", body, err)
	}
	if st := s.Stats(); st.Accepted != 0 || st.Queued+st.Running+st.Done != 0 {
		t.Errorf("oversized submit admitted a job: %+v", st)
	}

	resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"preset":"water"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("normal submit = %d, want 202", resp.StatusCode)
	}
}

// jsonPaths flattens a decoded JSON value into the set of its key paths,
// array elements collapsed ("classes[].count").
func jsonPaths(prefix string, v any, into map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			into[p] = true
			jsonPaths(p, e, into)
		}
	case []any:
		for _, e := range v {
			jsonPaths(prefix+"[]", e, into)
		}
	}
}

// TestJobProfileShape pins what GET /jobs/{id}/profile serves for a
// fixed job — water v5 — on both backends, against what it served when
// every job's profile was folded from a labelled trace: the same JSON
// keys, the same task total, the same classes with the same counts, and
// worker rows that account for every task. The profile is now computed
// from the run's spans; nothing a client reads may have changed.
func TestJobProfileShape(t *testing.T) {
	common := []string{
		"name", "span_ns", "tasks",
		"classes", "classes[].class", "classes[].count", "classes[].p50_ns", "classes[].p95_ns", "classes[].p99_ns", "classes[].max_ns", "classes[].total_ns",
		"workers", "workers[].node", "workers[].thread", "workers[].tasks", "workers[].busy_ns", "workers[].idle_ns",
		"workers[].startup_idle_ns", "workers[].longest_bubble_ns", "workers[].bubble_start_ns",
		"idle", "idle.total_idle_ns", "idle.mean_idle_frac", "idle.mean_startup_ns", "idle.max_bubble_ns", "idle.max_bubble_at_ns", "idle.max_bubble_owner",
		"phases", "phases.queue_ns", "phases.inspect_ns", "phases.plan_ns", "phases.exec_ns", "phases.cache_hit",
	}
	wantClasses := map[string]int64{"DFILL": 228, "GEMM": 228, "READA": 228, "READB": 228, "REDUCE": 228, "SORT": 38, "WRITE": 38}
	for _, tc := range []struct {
		name    string
		cfg     Config
		extra   []string
		maxRows int
	}{
		{"in-process", Config{MaxConcurrent: 1, DefaultWorkers: 2}, nil, 2},
		{"netrun", Config{MaxConcurrent: 1, DefaultWorkers: 2, NetrunBytes: 1, NetrunRanks: 2},
			[]string{"comm", "comm.acc_ops", "comm.acc_bytes", "comm.transfers", "comm.total_bytes", "recovery"}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.cfg)
			defer s.Shutdown()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			st, err := s.Submit(JobSpec{Preset: "water", Variant: "v5"})
			if err != nil {
				t.Fatal(err)
			}
			if st = waitTerminal(t, s, st.ID); st.State != JobDone {
				t.Fatalf("job state = %s (%s)", st.State, st.Error)
			}
			resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/profile")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body bytes.Buffer
			if _, err := body.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("profile status = %d, read error %v", resp.StatusCode, err)
			}

			var raw any
			if err := json.Unmarshal(body.Bytes(), &raw); err != nil {
				t.Fatal(err)
			}
			got := make(map[string]bool)
			jsonPaths("", raw, got)
			for _, k := range append(append([]string(nil), common...), tc.extra...) {
				if !got[k] {
					t.Errorf("profile lost key %s", k)
				}
				delete(got, k)
			}
			for k := range got {
				t.Errorf("profile grew key %s", k)
			}

			var prof obsv.Profile
			if err := json.Unmarshal(body.Bytes(), &prof); err != nil {
				t.Fatal(err)
			}
			if prof.Tasks != 1216 || int(prof.Tasks) != st.Result.Tasks {
				t.Errorf("profile covers %d tasks, result %d, want 1216", prof.Tasks, st.Result.Tasks)
			}
			classes := make(map[string]int64)
			for _, c := range prof.Classes {
				classes[c.Class] = c.Count
			}
			if !reflect.DeepEqual(classes, wantClasses) {
				t.Errorf("classes = %v, want %v", classes, wantClasses)
			}
			rowTasks := 0
			for _, w := range prof.Workers {
				rowTasks += w.Tasks
			}
			if n := len(prof.Workers); n < 1 || n > tc.maxRows || rowTasks != 1216 {
				t.Errorf("%d worker rows (want 1..%d) account for %d tasks", n, tc.maxRows, rowTasks)
			}
		})
	}
}
