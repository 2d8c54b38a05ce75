package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/molecule"
	"parsec/internal/tce"
)

// TestServerRecovery is the restart story at the package level: a first
// server lifetime produces done and canceled jobs; the journal is then
// extended with an interrupted (running) job exactly as a crashed
// lifetime would leave it; the second lifetime must restore terminal
// results verbatim, re-enqueue and complete the interrupted job to a
// bitwise-identical energy, and issue IDs from a fresh epoch.
func TestServerRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MaxConcurrent: 1, DataDir: dir}

	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Preset: "water", Variant: "v5"}
	done, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done = waitTerminal(t, s1, done.ID)
	if done.State != JobDone {
		t.Fatalf("first-life job state = %s, want done", done.State)
	}
	eWater := done.Result.Energy

	// The executor holds the job to cancel until the cancel is asked
	// for, so a warm-cache water job cannot finish first. The first job
	// is done, so the hook is set before the executor next reads it.
	cancelAsked := make(chan struct{})
	s1.hookJobStart = func(*job) { <-cancelAsked }
	canceled, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Cancel(canceled.ID); err != nil {
		t.Fatal(err)
	}
	close(cancelAsked)
	if canceled = waitTerminal(t, s1, canceled.ID); canceled.State != JobCanceled {
		t.Fatalf("first-life canceled job state = %s, want canceled", canceled.State)
	}
	s1.Shutdown()

	// Simulate the crash residue a SIGKILL leaves behind: a job that was
	// submitted and running but never reached a terminal record, plus one
	// whose spec no longer validates.
	sys := molecule.Water631G()
	jl, _, err := OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	interrupted := Record{
		Op: OpSubmit, ID: "j1-999999",
		Key:  keyFor(t, sys, "v5", 0, 0, 0),
		Spec: &spec, SubmittedNs: time.Now().UnixNano(),
	}
	badSpec := JobSpec{Preset: "unobtainium", Variant: "v5"}
	for _, rec := range []Record{
		interrupted,
		{Op: OpRunning, ID: interrupted.ID},
		{Op: OpSubmit, ID: "j1-999998", Spec: &badSpec, SubmittedNs: time.Now().UnixNano()},
	} {
		if err := jl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()

	// Terminal results come back verbatim and flagged recovered.
	rDone, err := s2.Job(done.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rDone.State != JobDone || rDone.Result == nil || !rDone.Recovered {
		t.Fatalf("recovered done job = %+v, want done+recovered with result", rDone)
	}
	if rDone.Result.Energy != eWater {
		t.Fatalf("recovered energy %.15f != recorded %.15f (must be bitwise)", rDone.Result.Energy, eWater)
	}
	if rCan, _ := s2.Job(canceled.ID); rCan.State != JobCanceled {
		t.Fatalf("recovered canceled job state = %s, want canceled", rCan.State)
	}

	// The interrupted job re-executes to a bitwise-identical energy.
	ri := waitTerminal(t, s2, interrupted.ID)
	if ri.State != JobDone {
		t.Fatalf("interrupted job state = %s (%s), want done", ri.State, ri.Error)
	}
	if ri.Result.Energy != eWater {
		t.Fatalf("re-executed energy %.15f != first-life energy %.15f (must be bitwise)", ri.Result.Energy, eWater)
	}

	// The no-longer-valid job fails instead of wedging the queue.
	if rBad, _ := s2.Job("j1-999998"); rBad.State != JobFailed || !strings.Contains(rBad.Error, "no longer valid") {
		t.Fatalf("invalid recovered job = %+v, want failed", rBad)
	}

	// The second lifetime runs in a fresh epoch with non-colliding IDs.
	st := s2.Stats()
	if st.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", st.Epoch)
	}
	if st.Recovered != 4 {
		t.Fatalf("recovered = %d, want 4", st.Recovered)
	}
	fresh, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(fresh.ID, "j2-") {
		t.Fatalf("fresh job ID %q not namespaced by epoch 2", fresh.ID)
	}
	if _, collide := map[string]bool{done.ID: true, canceled.ID: true}[fresh.ID]; collide {
		t.Fatalf("fresh ID %q collides with a first-life ID", fresh.ID)
	}
	waitTerminal(t, s2, fresh.ID)
}

// TestSubmitJournaledBeforeRun: when an executor starts a job, the
// job's submit record is already in the journal, ahead of its running
// record. Replay drops a transition that comes before its submit, so a
// submit record written late would replay a finished job as queued and
// run it again. (The window is a few instructions wide, so this can
// also pass on code that writes the record late.)
func TestSubmitJournaledBeforeRun(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	s, err := Open(Config{MaxConcurrent: 2, QueueDepth: 16, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		problems []string
	)
	s.hookJobStart = func(j *job) {
		f, err := os.Open(path)
		if err != nil {
			t.Error(err)
			return
		}
		recs, _, err := replay(f)
		f.Close()
		submit, running := -1, -1
		for i, r := range recs {
			if r.ID == j.id && r.Op == OpSubmit {
				submit = i
			}
			if r.ID == j.id && r.Op == OpRunning {
				running = i
			}
		}
		if err != nil || submit < 0 || running < submit {
			mu.Lock()
			problems = append(problems, fmt.Sprintf("%s: submit record %d, running record %d (%v)", j.id, submit, running, err))
			mu.Unlock()
		}
	}
	var ids []string
	for i := 0; i < 8; i++ {
		st, err := s.Submit(JobSpec{Preset: "water", Variant: "v5"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if st := waitTerminal(t, s, id); st.State != JobDone {
			t.Fatalf("job %s state = %s (%s), want done", id, st.State, st.Error)
		}
	}
	s.Shutdown()
	for _, p := range problems {
		t.Error(p)
	}
	jl, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jl.Close()
	replayed := reduceRecords(recs)
	for _, id := range ids {
		if j := replayed.Jobs[id]; j == nil || j.State != JobDone {
			t.Errorf("job %s replays as %+v, want done", id, j)
		}
	}
}

// TestServerMemBudget exercises memory-based admission: a budget that
// fits one water job admits the first, rejects the second with
// ErrOverBudget while the first is unfinished, and admits again once the
// footprint is released.
func TestServerMemBudget(t *testing.T) {
	foot := ccsd.EstimateFootprint(molecule.Water631G())
	if foot <= 0 {
		t.Fatalf("EstimateFootprint(water) = %d, want positive", foot)
	}
	gate := make(chan struct{})
	s := New(Config{MaxConcurrent: 1, QueueDepth: 8, MemBudget: foot + foot/2})
	s.hookJobStart = func(*job) { <-gate }
	defer s.Shutdown()
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()

	spec := JobSpec{Preset: "water", Variant: "v5"}
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.FootprintBytes != foot {
		t.Fatalf("job footprint = %d, want %d", first.FootprintBytes, foot)
	}
	if _, err := s.Submit(spec); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("second submit err = %v, want ErrOverBudget", err)
	}
	st := s.Stats()
	if st.RejectedMem != 1 || st.Rejected != 1 {
		t.Fatalf("rejected = %d / rejectedMem = %d, want 1/1", st.Rejected, st.RejectedMem)
	}
	if st.AdmittedBytes != foot {
		t.Fatalf("admitted bytes = %d, want %d", st.AdmittedBytes, foot)
	}

	close(gate)
	waitTerminal(t, s, first.ID)
	if got := s.Stats().AdmittedBytes; got != 0 {
		t.Fatalf("admitted bytes after completion = %d, want 0 (footprint released)", got)
	}
	second, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit after release: %v", err)
	}
	waitTerminal(t, s, second.ID)
}

// TestHTTPOverBudget429 checks the over-budget rejection maps to 429
// with the same Retry-After contract as queue-full.
func TestHTTPOverBudget429(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 8, MemBudget: 1, RetryAfter: 500 * time.Millisecond})
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"preset":"water"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
}

// TestRetryAfterSeconds is the regression test for the sub-second
// truncation bug: hints must round up and never render as "0".
func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{500 * time.Millisecond, "1"},
		{time.Millisecond, "1"},
		{0, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{3 * time.Second, "3"},
	} {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestHTTPRetryAfterSubSecond drives the original bug end to end: a
// server configured with a 500ms hint must emit Retry-After: 1 on its
// queue-full 429s, not 0.
func TestHTTPRetryAfterSubSecond(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1, RetryAfter: 500 * time.Millisecond})
	s.hookJobStart = func(*job) { <-gate }
	defer s.Shutdown()
	defer close(gate)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func() *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json",
			strings.NewReader(`{"preset":"water"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	submit()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Running == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	submit()
	over := submit()
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", over.StatusCode)
	}
	if ra := over.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\" (sub-second hints must never render 0)", ra)
	}
}

// TestServerNetrunDispatch routes a job above the netrun threshold onto
// the distributed backend (in-process ranks over real sockets) and
// checks the result carries the backend fingerprint and the right
// energy.
func TestServerNetrunDispatch(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, NetrunBytes: 1, NetrunRanks: 2})
	defer s.Shutdown()

	st, err := s.Submit(JobSpec{Preset: "water", Variant: "v5"})
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, s, st.ID)
	if st.State != JobDone {
		t.Fatalf("netrun job state = %s (%s), want done", st.State, st.Error)
	}
	if st.Result.Backend != BackendNetrun || st.Result.Ranks != 2 {
		t.Fatalf("backend = %q ranks = %d, want netrun/2", st.Result.Backend, st.Result.Ranks)
	}
	ref := ccsd.ReferenceEnergy(tce.Inspect(tce.T2_7(molecule.Water631G()), nil))
	if d := ccsd.EnergyRelDiff(st.Result.Energy, ref); d > ccsd.EnergyTol {
		t.Fatalf("netrun energy %.15f vs reference %.15f: relative diff %.3e > %g", st.Result.Energy, ref, d, ccsd.EnergyTol)
	}
	if got := s.Stats().NetrunJobs; got != 1 {
		t.Fatalf("netrun jobs = %d, want 1", got)
	}
	if prof, _ := s.Profile(st.ID); prof == nil || prof.Phase == nil {
		t.Fatal("netrun job has no profile with phases")
	}
}

// TestServerNetrunCancel cancels a job mid-flight on the netrun backend;
// the coordinator must shut its ranks down and the job must end
// canceled, with the server healthy for later work.
func TestServerNetrunCancel(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	s := New(Config{MaxConcurrent: 1, NetrunBytes: 1, NetrunRanks: 2})
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

	after, err := s.Submit(JobSpec{Preset: "water", Variant: "v5"})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, after.ID); st.State != JobDone {
		t.Fatalf("post-cancel job state = %s, want done", st.State)
	}
}

// TestServerConcurrentLifecycle hammers Submit, Cancel, and Shutdown
// from many goroutines at once (including double Shutdown) — the
// interleavings that corrupt admission accounting or panic on a closed
// queue if the locking is wrong. Run under -race.
func TestServerConcurrentLifecycle(t *testing.T) {
	foot := ccsd.EstimateFootprint(molecule.Water631G())
	s := New(Config{
		MaxConcurrent: 2,
		QueueDepth:    16,
		MemBudget:     8 * foot,
	})

	spec := JobSpec{Preset: "water", Variant: "v4"}
	var (
		mu  sync.Mutex
		ids []string
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st, err := s.Submit(spec)
				switch {
				case err == nil:
					mu.Lock()
					ids = append(ids, st.ID)
					mu.Unlock()
				case errors.Is(err, ErrShuttingDown):
					return
				case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverBudget):
					time.Sleep(time.Millisecond)
				default:
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			var id string
			if len(ids) > 0 {
				id = ids[len(ids)-1]
			}
			mu.Unlock()
			if id != "" {
				s.Cancel(id)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(50 * time.Millisecond)
	// Three concurrent Shutdowns plus a sequential double call: all must
	// return only after the drain, none may panic.
	var sd sync.WaitGroup
	for i := 0; i < 3; i++ {
		sd.Add(1)
		go func() {
			defer sd.Done()
			s.Shutdown()
		}()
	}
	sd.Wait()
	s.Shutdown()
	close(stop)
	wg.Wait()

	if _, err := s.Submit(spec); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown err = %v, want ErrShuttingDown", err)
	}
	st := s.Stats()
	if st.Queued != 0 || st.Running != 0 {
		t.Fatalf("stats after shutdown: queued=%d running=%d, want 0/0", st.Queued, st.Running)
	}
	if st.AdmittedBytes != 0 {
		t.Fatalf("admitted bytes after shutdown = %d, want 0", st.AdmittedBytes)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range ids {
		got, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if !got.State.Terminal() {
			t.Fatalf("job %s state = %s after shutdown, want terminal", id, got.State)
		}
	}
}
