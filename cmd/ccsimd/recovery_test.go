//go:build unix

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/molecule"
	"parsec/internal/netrun"
	"parsec/internal/serve"
)

// daemonEnv, set to 1 in a child's environment, makes this test binary
// run the daemon on the child's arguments instead of the tests.
const daemonEnv = "CCSIMD_TEST_DAEMON"

// TestMain completes two self-exec loops. A child daemon places a large
// job on netrun worker ranks by re-executing its own binary, this one;
// such a rank inherits the daemon's environment, daemonEnv included, so
// MaybeWorkerMain must come first: it runs the rank and exits. A process
// launched with daemonEnv set is a child daemon: it runs main until
// SIGTERM.
func TestMain(m *testing.M) {
	netrun.MaybeWorkerMain()
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// client drives one daemon's HTTP surface; any transport or protocol
// error fails the test.
type client struct {
	t    *testing.T
	base string
	hc   *http.Client
}

// submit posts a job spec. It returns the accepted job's status, or, on
// a 429, ok false and the Retry-After header.
func (c *client) submit(spec serve.JobSpec) (st serve.JobStatus, ok bool, retryAfter string) {
	c.t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return st, false, resp.Header.Get("Retry-After")
	case http.StatusAccepted:
		decode(c.t, resp, &st)
		return st, true, ""
	}
	c.t.Fatalf("submit %+v: HTTP %d", spec, resp.StatusCode)
	return
}

// admit submits a job the queue must accept.
func (c *client) admit(spec serve.JobSpec) serve.JobStatus {
	c.t.Helper()
	st, ok, _ := c.submit(spec)
	if !ok {
		c.t.Fatalf("submit %+v: rejected with 429", spec)
	}
	return st
}

// cancel requests cancellation and returns the job's status as the
// daemon answered it.
func (c *client) cancel(id string) serve.JobStatus {
	c.t.Helper()
	resp, err := c.hc.Post(c.base+"/jobs/"+id+"/cancel", "application/json", nil)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		c.t.Fatalf("cancel %s: HTTP %d", id, resp.StatusCode)
	}
	var st serve.JobStatus
	decode(c.t, resp, &st)
	return st
}

// get fetches path and decodes its JSON body into v.
func (c *client) get(path string, v any) {
	c.t.Helper()
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	decode(c.t, resp, v)
}

// status fetches a job's current status without waiting.
func (c *client) status(id string) serve.JobStatus {
	c.t.Helper()
	var st serve.JobStatus
	c.get("/jobs/"+id, &st)
	return st
}

// waitUntil polls a job until its state satisfies done.
func (c *client) waitUntil(id string, done func(serve.JobState) bool) serve.JobStatus {
	c.t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := c.status(id)
		if done(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("job %s still %s after 2 minutes", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// wait polls a job until it is terminal.
func (c *client) wait(id string) serve.JobStatus {
	c.t.Helper()
	return c.waitUntil(id, serve.JobState.Terminal)
}

func decode(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s %s: decode: %v", resp.Request.Method, resp.Request.URL.Path, err)
	}
}

// daemon is one child ccsimd process.
type daemon struct {
	*client
	cmd *exec.Cmd
}

// startDaemon launches this test binary as a journaled ccsimd on addr
// with one executor, a queue of four and a sub-second Retry-After hint,
// and waits for /healthz. Jobs whose footprint reaches netrunBytes run
// on two netrun worker processes. At cleanup the daemon and every worker
// rank it started are killed.
func startDaemon(t *testing.T, addr, dataDir string, netrunBytes int64) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe,
		"-addr", addr,
		"-data", dataDir,
		"-max-concurrent", "1",
		"-queue-depth", "4",
		"-retry-after", "500ms",
		"-netrun-bytes", fmt.Sprint(netrunBytes),
		"-netrun-ranks", "2",
	)
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// The daemon leads a process group its worker ranks join, so the test
	// can watch the ranks of a SIGKILLed daemon exit on their own — a rank
	// whose coordinator is gone fails — and cleanup can reach any that do
	// not.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{client: &client{t: t, base: "http://" + addr, hc: &http.Client{Timeout: 5 * time.Minute}}, cmd: cmd}
	t.Cleanup(func() {
		// ESRCH only: the daemon was reaped and left no rank behind.
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		d.kill()
	})
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(25 * time.Millisecond) {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
	}
	t.Fatalf("child ccsimd on %s never became healthy", addr)
	return nil
}

// kill delivers SIGKILL, the crash under test, and reaps the daemon.
func (d *daemon) kill() {
	if d.cmd.ProcessState == nil {
		// Kill fails only on a process that already exited, and Wait
		// reports the SIGKILL as the exit status; neither is news.
		_ = d.cmd.Process.Kill()
		_ = d.cmd.Wait()
	}
}

// stop shuts the daemon down the way an operator does, SIGTERM and a
// drain, and fails the test unless it exits cleanly (under -race a
// child that saw a race exits nonzero).
func (d *daemon) stop() {
	d.t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			d.t.Fatalf("daemon exit after SIGTERM: %v", err)
		}
	case <-time.After(2 * time.Minute):
		_ = d.cmd.Process.Kill() // the drain hung; the failure below says so
		<-done
		d.t.Fatal("daemon did not drain within 2 minutes of SIGTERM")
	}
}

// groupAlive reports whether any process of the group pgid still runs.
// An exited rank whose daemon died stays a zombie until init reaps it,
// and an init that never reaps must not make it count, so where procfs
// exists a member is alive only in a state other than Z.
func groupAlive(pgid int) bool {
	if syscall.Kill(-pgid, 0) != nil {
		return false // ESRCH: nothing left, zombies included
	}
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	if stats == nil {
		return true
	}
	for _, p := range stats {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // exited since the glob
		}
		// pid (comm) state ppid pgrp ...: comm may hold spaces, so the
		// fields after it are counted from its closing parenthesis.
		var state byte
		var ppid, pgrp int
		i := bytes.LastIndexByte(b, ')')
		if i < 0 {
			continue
		}
		if _, err := fmt.Sscanf(string(b[i+1:]), " %c %d %d", &state, &ppid, &pgrp); err == nil && pgrp == pgid && state != 'Z' {
			return true
		}
	}
	return false
}

// freeAddr reserves a loopback port and releases it for a child to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestRecoveryAfterKill drives a journaled daemon process through jobs
// in every state, SIGKILLs it with a benzene job running on netrun
// worker processes and water jobs queued behind it, and restarts it on
// the same journal. The restarted daemon must serve prior terminal
// results verbatim, keep the canceled job canceled, and re-execute the
// interrupted and queued jobs to bitwise-identical energies on their
// original backends — benzene across two real worker processes.
func TestRecoveryAfterKill(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon and netrun worker processes in -short mode")
	}
	dataDir := t.TempDir()
	addr := freeAddr(t)
	// The threshold sits between the two footprints: water runs
	// in-process, benzene on 2 netrun worker processes.
	threshold := ccsd.EstimateFootprint(molecule.Water631G()) + 1
	water := serve.JobSpec{Preset: "water", Variant: "v5"}
	benzene := serve.JobSpec{Preset: "benzene", Variant: "v5"}

	c1 := startDaemon(t, addr, dataDir, threshold)

	// One job in each terminal state. The canceled water is submitted
	// behind a benzene job: with one executor it cannot start before
	// the benzene, which spawns two worker processes, has finished.
	doneWater := c1.wait(c1.admit(water).ID)
	if doneWater.State != serve.JobDone || doneWater.Result.Backend != serve.BackendInProcess {
		t.Fatalf("water job: state %s, want done in-process (%+v)", doneWater.State, doneWater.Result)
	}
	doneBenz := c1.admit(benzene)
	canceled := c1.admit(water)
	if st := c1.cancel(canceled.ID); st.State != serve.JobQueued {
		t.Fatalf("cancel reached water job %s in state %s, want it queued behind benzene %s", canceled.ID, st.State, doneBenz.ID)
	}
	doneBenz = c1.wait(doneBenz.ID)
	if doneBenz.State != serve.JobDone || doneBenz.Result.Backend != serve.BackendNetrun || doneBenz.Result.Ranks != 2 {
		t.Fatalf("benzene job: state %s, want done on 2 netrun ranks (%+v)", doneBenz.State, doneBenz.Result)
	}
	if canceled = c1.wait(canceled.ID); canceled.State != serve.JobCanceled {
		t.Fatalf("canceled job: state %s, want canceled", canceled.State)
	}
	t.Logf("pre-kill: water E=%.12f in-process, benzene E=%.12f on %d netrun processes",
		doneWater.Result.Energy, doneBenz.Result.Energy, doneBenz.Result.Ranks)

	// Occupy the executor with a benzene run, queue waters behind it,
	// and overflow the queue: the 500ms hint must render as "1", never
	// "0". The benzene has to leave the queue first, or it holds one of
	// the four slots.
	interrupted := c1.admit(benzene)
	c1.waitUntil(interrupted.ID, func(s serve.JobState) bool { return s != serve.JobQueued })
	var queued []serve.JobStatus
	for i := 0; i < 4; i++ {
		queued = append(queued, c1.admit(water))
	}
	retryAfter := ""
	for i := 0; i < 50 && retryAfter == ""; i++ {
		if _, ok, ra := c1.submit(water); !ok {
			retryAfter = ra
		} else {
			time.Sleep(20 * time.Millisecond) // the benzene finished; refill
		}
	}
	if retryAfter != "1" {
		t.Fatalf("overflow Retry-After = %q, want \"1\" (sub-second hints round up, never to 0)", retryAfter)
	}

	// SIGKILL with jobs done, canceled, running and queued.
	var before serve.Stats
	c1.get("/stats", &before)
	c1.kill()
	t.Logf("killed with %d done, %d canceled, %d running, %d queued",
		before.Done, before.Canceled, before.Running, before.Queued)
	// The interrupted benzene's two ranks lost their coordinator with the
	// daemon; each must notice and exit, not wait out its deadline.
	for deadline := time.Now().Add(2 * time.Second); groupAlive(c1.cmd.Process.Pid); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker ranks still running 2 s after their daemon was killed")
		}
	}

	c2 := startDaemon(t, addr, dataDir, threshold)
	for _, want := range []serve.JobStatus{doneWater, doneBenz} {
		got := c2.status(want.ID)
		if got.State != serve.JobDone || got.Result == nil || *got.Result != *want.Result || !got.Recovered {
			t.Fatalf("recovered job %s: state %s recovered %v result %+v, want verbatim %+v",
				want.ID, got.State, got.Recovered, got.Result, want.Result)
		}
	}
	if got := c2.status(canceled.ID); got.State != serve.JobCanceled {
		t.Fatalf("recovered canceled job %s: state %s, want canceled", canceled.ID, got.State)
	}

	// Interrupted and queued jobs re-execute to bitwise-identical
	// energies on their original backends.
	ri := c2.wait(interrupted.ID)
	if ri.State != serve.JobDone || ri.Result.Energy != doneBenz.Result.Energy ||
		ri.Result.Backend != serve.BackendNetrun || ri.Result.Ranks != 2 {
		t.Fatalf("re-executed benzene %s: state %s result %+v, want done on 2 netrun ranks with E=%.15f",
			interrupted.ID, ri.State, ri.Result, doneBenz.Result.Energy)
	}
	for _, q := range queued {
		if rq := c2.wait(q.ID); rq.State != serve.JobDone || rq.Result.Energy != doneWater.Result.Energy {
			t.Fatalf("re-executed water %s: state %s result %+v, want done with E=%.15f",
				q.ID, rq.State, rq.Result, doneWater.Result.Energy)
		}
	}
	var st serve.Stats
	c2.get("/stats", &st)
	if st.Recovered < 8 || st.Epoch < 2 {
		t.Fatalf("stats: recovered %d epoch %d, want >= 8 jobs and epoch >= 2 after a restart", st.Recovered, st.Epoch)
	}
	c2.stop()
}
