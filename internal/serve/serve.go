// Package serve is the long-running CCSD service behind cmd/ccsimd: an
// admission queue feeding a bounded pool of executor goroutines, a
// content-keyed LRU cache of compiled plans (see PlanCache), per-job
// cancellation threaded into the runtime, and per-job observability
// profiles. The paper's pipeline — inspection, chain planning, PTG
// construction — is a pure function of (molecule, basis, variant, graph
// shape), so the service compiles it once per distinct key and lets
// every repeat submission skip straight to execution; ROADMAP calls
// this the "millions of users" axis.
//
// Concurrency model: Submit either enqueues a job or fails fast with
// ErrQueueFull or ErrOverBudget (the HTTP layer maps both to 429 +
// Retry-After). MaxConcurrent executor goroutines drain the queue; each
// job executes on its own runtime.Run with its own Global Arrays store
// and its own per-worker scratch shards — or, when its estimated tensor
// footprint reaches Config.NetrunBytes, across netrun worker ranks —
// so jobs share the machine but no mutable state. Cancellation closes a
// per-job channel observed by the queue (pre-execution), the runtime
// scheduler, and the netrun coordinator (mid-execution). Shutdown stops
// admission and drains everything already accepted.
//
// Durability: with Config.DataDir set, every job transition is appended
// to a checksummed journal (see Journal) and replayed on startup —
// terminal results are restored verbatim and interrupted jobs are
// re-enqueued. Plans are pure and Global Arrays accumulation is
// ordered, so a re-executed job recomputes a bitwise-identical energy.
package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/molecule"
	"parsec/internal/netrun"
	"parsec/internal/obsv"
	"parsec/internal/runtime"
)

// ErrQueueFull is returned by Submit when the admission queue is at
// capacity; clients should back off and retry (HTTP 429).
var ErrQueueFull = errors.New("serve: admission queue full")

// ErrOverBudget is returned by Submit when admitting the job would push
// the total estimated tensor footprint of unfinished jobs past
// Config.MemBudget; clients should back off and retry (HTTP 429).
var ErrOverBudget = errors.New("serve: memory budget exceeded")

// ErrShuttingDown is returned by Submit after Shutdown has begun.
var ErrShuttingDown = errors.New("serve: server shutting down")

// ErrUnknownJob is returned for lookups of job IDs the server never
// issued.
var ErrUnknownJob = errors.New("serve: unknown job")

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// MaxConcurrent is the number of jobs executing simultaneously
	// (executor goroutines). Default 2.
	MaxConcurrent int
	// QueueDepth is how many admitted jobs may wait for an executor
	// before Submit returns ErrQueueFull. Default 16.
	QueueDepth int
	// CacheCap is the plan cache capacity in entries. Default 32.
	CacheCap int
	// DefaultWorkers is the runtime worker count for jobs that do not
	// set one. Default 1 (jobs scale out across MaxConcurrent slots;
	// raise this to let single jobs scale up instead).
	DefaultWorkers int
	// RetryAfter is the backoff hint attached to queue-full and
	// over-budget rejections. Default 1s.
	RetryAfter time.Duration

	// DataDir, when non-empty, makes job records durable: every
	// transition is appended to DataDir/jobs.journal, and startup
	// replays the log — terminal results restored verbatim, queued and
	// running jobs re-enqueued. Empty keeps everything in memory.
	DataDir string

	// MemBudget, when positive, bounds the summed estimated tensor
	// footprint (bytes, see ccsd.EstimateFootprint) of all
	// admitted-but-unfinished jobs; Submit rejects with ErrOverBudget
	// instead of admitting past it. Zero disables memory admission —
	// only QueueDepth gates.
	MemBudget int64

	// NetrunBytes, when positive, dispatches jobs whose estimated
	// footprint is at least this many bytes onto the netrun
	// multi-rank backend (netrun.Run, or netrun.StartProcesses under
	// NetrunProcs) instead of the in-process runtime. Zero keeps every
	// job in-process.
	NetrunBytes int64
	// NetrunRanks is the worker rank count for netrun-dispatched jobs.
	// Default 2.
	NetrunRanks int
	// NetrunProcs runs netrun ranks as real OS processes (the calling
	// binary must invoke netrun.MaybeWorkerMain early in main); false
	// runs them as in-process ranks over the same sockets and protocol.
	NetrunProcs bool
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 32
	}
	if c.DefaultWorkers <= 0 {
		c.DefaultWorkers = 1
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.NetrunRanks <= 0 {
		c.NetrunRanks = 2
	}
	return c
}

// Stats is the server-wide counter snapshot served at /stats.
type Stats struct {
	// Cache is the plan-cache snapshot.
	Cache CacheStats `json:"cache"`
	// Accepted and Rejected count Submit outcomes; Rejected are the
	// 429s (queue-full plus over-budget), RejectedMem the over-budget
	// subset.
	Accepted    int64 `json:"accepted"`
	Rejected    int64 `json:"rejected"`
	RejectedMem int64 `json:"rejected_mem"`
	// Queued through Canceled count jobs currently in each state.
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	// Recovered counts jobs restored from the journal at startup
	// (terminal and re-enqueued alike).
	Recovered int `json:"recovered,omitempty"`
	// AdmittedBytes is the summed footprint of unfinished jobs;
	// MemBudget echoes the configured bound (0 = unlimited).
	AdmittedBytes int64 `json:"admitted_bytes"`
	MemBudget     int64 `json:"mem_budget"`
	// NetrunJobs counts jobs dispatched onto the netrun backend.
	NetrunJobs int64 `json:"netrun_jobs"`
	// Epoch is the boot epoch namespacing this run's job IDs.
	Epoch int `json:"epoch"`
	// MaxConcurrent and QueueDepth echo the server's admission shape.
	MaxConcurrent int `json:"max_concurrent"`
	QueueDepth    int `json:"queue_depth"`
}

// Server is the CCSD job service. Create with Open (or New), submit
// with Submit, and stop with Shutdown; all methods are safe for
// concurrent use.
type Server struct {
	cfg     Config
	cache   *PlanCache
	journal *Journal // nil without DataDir
	epoch   int

	queue chan *job
	wg    sync.WaitGroup

	mu            sync.Mutex
	jobs          map[string]*job
	nextID        int
	accepted      int64
	rejected      int64
	rejectedMem   int64
	netrunJobs    int64
	recovered     int
	admittedBytes int64
	closed        bool

	// footMu guards the memoized per-system footprint estimates
	// (footprints is keyed by system identity, not plan key: variant
	// and graph shape do not change which blocks exist).
	footMu     sync.Mutex
	footprints map[string]int64

	// hookJobStart, when non-nil, runs as a job enters the running
	// state — a test seam for holding executors mid-job.
	hookJobStart func(*job)
}

// New starts a server and panics if its journal cannot be opened; it is
// the convenience constructor for memory-only configurations (no
// DataDir), where no failure mode exists. Daemons with a DataDir should
// call Open and handle the error.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a server: the journal (if Config.DataDir is set) is
// replayed, interrupted jobs are re-enqueued, and the executor pool is
// live on return.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		cache:      NewPlanCache(cfg.CacheCap),
		jobs:       make(map[string]*job),
		footprints: make(map[string]int64),
		epoch:      1,
	}

	var pending []*job
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, err
		}
		jl, recs, err := OpenJournal(filepath.Join(cfg.DataDir, "jobs.journal"))
		if err != nil {
			return nil, err
		}
		s.journal = jl
		pending = s.restore(reduceRecords(recs))
		if err := jl.Append(Record{Op: OpBoot, Epoch: s.epoch}); err != nil {
			jl.Close()
			return nil, err
		}
	}

	// Recovered jobs must never be dropped by the bounded queue, so the
	// channel is sized to hold all of them on top of the normal depth.
	s.queue = make(chan *job, cfg.QueueDepth+len(pending))
	for _, j := range pending {
		s.queue <- j
	}
	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s, nil
}

// restore rebuilds the jobs map from a replayed journal: terminal jobs
// keep their recorded results verbatim; queued/running jobs are
// revalidated and returned for re-enqueue (admission bookkeeping
// included — they were admitted before the crash, so they bypass the
// budget check). Jobs whose spec no longer validates are marked failed.
func (s *Server) restore(st *replayState) []*job {
	s.epoch = st.MaxEpoch + 1
	var pending []*job
	for _, id := range st.Order {
		rj := st.Jobs[id]
		j := &job{
			id:        rj.ID,
			spec:      rj.Spec,
			key:       rj.Key,
			submitted: time.Unix(0, rj.SubmittedNs),
			cancel:    make(chan struct{}),
			state:     rj.State,
			recovered: true,
		}
		s.jobs[j.id] = j
		s.recovered++
		switch {
		case rj.State == JobDone:
			j.result = rj.Result
		case rj.State == JobFailed:
			j.err = errors.New(rj.Error)
		case rj.State.Terminal():
			// canceled: nothing more to restore
		default:
			sys, vspec, err := rj.Spec.resolve()
			if err != nil {
				j.state = JobFailed
				j.err = fmt.Errorf("serve: recovered job no longer valid: %w", err)
				s.journalAppend(Record{Op: OpFailed, ID: j.id, Error: j.err.Error()})
				continue
			}
			j.sys, j.vspec = sys, vspec
			j.state = JobQueued
			j.foot = s.footprint(sys)
			j.accounted = true
			s.admittedBytes += j.foot
			pending = append(pending, j)
		}
	}
	return pending
}

// Config returns the server's effective (default-filled) configuration.
func (s *Server) Config() Config { return s.cfg }

// Cache exposes the plan cache (for stats and tests).
func (s *Server) Cache() *PlanCache { return s.cache }

// footprint returns the memoized footprint estimate for sys. The
// estimate is a pure function of the system, so it is computed once per
// distinct system the server ever sees. It is skipped entirely (zero)
// when neither memory admission nor netrun dispatch is enabled.
func (s *Server) footprint(sys *molecule.System) int64 {
	if s.cfg.MemBudget <= 0 && s.cfg.NetrunBytes <= 0 {
		return 0
	}
	key := fmt.Sprintf("%s|%d|%d|%d|%d|%#x",
		sys.Name, sys.NOccupied, sys.NVirtual, sys.TileTarget, sys.NIrreps, sys.Seed)
	s.footMu.Lock()
	defer s.footMu.Unlock()
	if f, ok := s.footprints[key]; ok {
		return f
	}
	f := ccsd.EstimateFootprint(sys)
	s.footprints[key] = f
	return f
}

// journalAppend writes rec if a journal is open; transition-record
// failures are reported to stderr but do not fail the job (the journal
// degrades to best-effort once the disk misbehaves).
func (s *Server) journalAppend(rec Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(rec); err != nil {
		fmt.Fprintf(os.Stderr, "serve: journal append (%s %s): %v\n", rec.Op, rec.ID, err)
	}
}

// Submit validates spec, admits it to the queue, and returns the new
// job's status. ErrQueueFull means the queue is at capacity and
// ErrOverBudget that the job's estimated tensor footprint does not fit
// the memory budget — retry either after Config.RetryAfter. The spec is
// validated before admission, so a returned job can only fail at
// execution time.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	if spec.Variant == "" {
		spec.Variant = "v5"
	}
	sys, vspec, err := spec.resolve()
	if err != nil {
		return JobStatus{}, err
	}
	foot := s.footprint(sys)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobStatus{}, ErrShuttingDown
	}
	if s.cfg.MemBudget > 0 && s.admittedBytes+foot > s.cfg.MemBudget {
		s.rejected++
		s.rejectedMem++
		s.mu.Unlock()
		return JobStatus{}, ErrOverBudget
	}
	s.nextID++
	j := &job{
		// IDs are namespaced by the boot epoch so no two daemon
		// lifetimes ever issue the same ID (journal replay depends on
		// that); %06d widens past 999,999 instead of wrapping.
		id:        fmt.Sprintf("j%d-%06d", s.epoch, s.nextID),
		spec:      spec,
		sys:       sys,
		vspec:     vspec,
		key:       PlanKey(sys, vspec.MustShape(), spec.Nodes),
		foot:      foot,
		submitted: time.Now(),
		cancel:    make(chan struct{}),
		state:     JobQueued,
	}
	if len(s.queue) == cap(s.queue) {
		s.rejected++
		s.mu.Unlock()
		return JobStatus{}, ErrQueueFull
	}
	s.jobs[j.id] = j
	s.accepted++
	j.accounted = true
	s.admittedBytes += foot
	// The submit record goes in before an executor can see the job, so
	// its running/done/canceled records can never precede it: replay
	// drops a transition that comes before its submit. Only Submit sends
	// on the queue, and only under s.mu, so the room checked above is
	// still there.
	s.journalAppend(Record{
		Op:          OpSubmit,
		ID:          j.id,
		Key:         j.key,
		Spec:        &j.spec,
		SubmittedNs: j.submitted.UnixNano(),
	})
	s.queue <- j
	s.mu.Unlock()
	return j.status(), nil
}

// Job returns the status of a job by ID.
func (s *Server) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return j.status(), nil
}

// Profile returns a finished job's observability profile, or nil if the
// job has not produced one (still pending, canceled before execution,
// failed, or restored from the journal — profiles are not persisted).
func (s *Server) Profile(id string) (*obsv.Profile, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.profile, nil
}

// Cancel requests cancellation of a job. Queued jobs are dropped before
// execution; running jobs halt between tasks (their scratch shards are
// drained by the runtime before Run returns). Cancelling a terminal job
// is a no-op.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return ErrUnknownJob
	}
	j.requestCancel()
	return nil
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Cache:         s.cache.Stats(),
		Accepted:      s.accepted,
		Rejected:      s.rejected,
		RejectedMem:   s.rejectedMem,
		Recovered:     s.recovered,
		AdmittedBytes: s.admittedBytes,
		MemBudget:     s.cfg.MemBudget,
		NetrunJobs:    s.netrunJobs,
		Epoch:         s.epoch,
		MaxConcurrent: s.cfg.MaxConcurrent,
		QueueDepth:    s.cfg.QueueDepth,
	}
	for _, j := range s.jobs {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		switch state {
		case JobQueued:
			st.Queued++
		case JobRunning:
			st.Running++
		case JobDone:
			st.Done++
		case JobFailed:
			st.Failed++
		case JobCanceled:
			st.Canceled++
		}
	}
	s.mu.Unlock()
	return st
}

// Shutdown stops admission and blocks until every already-accepted job
// (queued or running) reaches a terminal state. Safe to call
// concurrently and more than once; every call returns only after the
// drain completes.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
	if s.journal != nil {
		s.journal.Close()
	}
}

// runJob drives one job from queued to a terminal state, selecting the
// in-process runtime or the netrun backend by footprint.
func (s *Server) runJob(j *job) {
	if j.canceled() {
		s.finishCanceled(j)
		return
	}
	queueDur := time.Since(j.submitted)
	if !j.setState(JobRunning) {
		return
	}
	s.journalAppend(Record{Op: OpRunning, ID: j.id})
	if s.hookJobStart != nil {
		s.hookJobStart(j)
	}
	if s.cfg.NetrunBytes > 0 && j.foot >= s.cfg.NetrunBytes {
		s.runJobNetrun(j, queueDur)
		return
	}

	plan, hit, err := s.cache.Get(j.key, func() (*ccsd.CompiledPlan, error) {
		return ccsd.Compile(j.sys, j.vspec, ccsd.Options{Nodes: j.spec.Nodes}), nil
	})
	if err != nil {
		s.finishFailed(j, err)
		return
	}
	if j.canceled() {
		s.finishCanceled(j)
		return
	}

	workers := j.spec.Workers
	if workers <= 0 {
		workers = s.cfg.DefaultWorkers
	}
	// Every job is profiled, from the spans its run records; no trace
	// is built and no label formatted for a profile nobody may fetch.
	name := fmt.Sprintf("%s %s/%s", j.id, j.sys.Name, j.spec.Variant)
	t0 := time.Now()
	res, prof, err := plan.ExecuteProfiled(name, ccsd.ExecConfig{
		Workers: workers,
		Cancel:  j.cancel,
	})
	execDur := time.Since(t0)
	if errors.Is(err, runtime.ErrCanceled) {
		s.finishCanceled(j)
		return
	}
	if err != nil {
		s.finishFailed(j, err)
		return
	}

	ph := obsv.Phases{
		QueueNs:  queueDur.Nanoseconds(),
		ExecNs:   execDur.Nanoseconds(),
		CacheHit: hit,
	}
	if !hit {
		ph.InspectNs = plan.InspectTime.Nanoseconds()
		ph.PlanNs = plan.PlanTime.Nanoseconds()
	}
	prof.SetPhases(ph)

	s.finishDone(j, &JobResult{
		Energy:    res.Energy,
		Tasks:     res.Report.Tasks,
		Backend:   BackendInProcess,
		CacheHit:  hit,
		QueueNs:   ph.QueueNs,
		InspectNs: ph.InspectNs,
		PlanNs:    ph.PlanNs,
		ExecNs:    ph.ExecNs,
	}, prof)
}

// runJobNetrun executes one job across netrun worker ranks. The job
// travels as its system and its resolved shape's canonical recipe
// string, from which netrun compiles its own plan for the rank count
// (the plan cache does not apply: its plans are compiled for the spec's
// node count, not NetrunRanks, and worker processes compile their own);
// cancellation threads into the coordinator, and the ranks' spans feed
// the job profile.
func (s *Server) runJobNetrun(j *job, queueDur time.Duration) {
	nspec := netrun.JobSpec{Preset: j.spec.Preset, Custom: j.spec.Custom, Variant: j.vspec.MustShape().Canon()}
	workers := j.spec.Workers
	if workers <= 0 {
		workers = s.cfg.DefaultWorkers
	}
	s.mu.Lock()
	s.netrunJobs++
	s.mu.Unlock()

	cfg := netrun.Config{
		Ranks:   s.cfg.NetrunRanks,
		Workers: workers,
		Policy:  j.vspec.Policy(),
		Cancel:  j.cancel,
	}
	t0 := time.Now()
	var res *netrun.Result
	var err error
	if s.cfg.NetrunProcs {
		var l *netrun.Launch
		if l, err = netrun.StartProcesses(cfg, nspec); err == nil {
			res, err = l.Wait()
		}
	} else {
		res, err = netrun.Run(cfg, nspec)
	}
	execDur := time.Since(t0)
	if errors.Is(err, netrun.ErrCanceled) || errors.Is(err, runtime.ErrCanceled) {
		s.finishCanceled(j)
		return
	}
	if err != nil {
		s.finishFailed(j, err)
		return
	}

	prof := res.Profile(fmt.Sprintf("%s %s/%s", j.id, j.sys.Name, j.spec.Variant))
	prof.SetPhases(obsv.Phases{
		QueueNs: queueDur.Nanoseconds(),
		ExecNs:  execDur.Nanoseconds(),
	})
	s.finishDone(j, &JobResult{
		Energy:  res.Energy,
		Tasks:   res.Tasks,
		Backend: BackendNetrun,
		Ranks:   res.Ranks,
		QueueNs: queueDur.Nanoseconds(),
		ExecNs:  execDur.Nanoseconds(),
	}, prof)
}

// finishDone records success (unless the job already reached a terminal
// state) with its result and profile.
func (s *Server) finishDone(j *job, result *JobResult, prof *obsv.Profile) {
	j.mu.Lock()
	changed := !j.state.Terminal()
	if changed {
		j.state = JobDone
		j.result = result
		j.profile = prof
	}
	j.mu.Unlock()
	if changed {
		s.noteTerminal(j, Record{Op: OpDone, ID: j.id, Result: result})
	}
}

// finishCanceled moves a job to canceled (unless already terminal).
func (s *Server) finishCanceled(j *job) {
	if j.setState(JobCanceled) {
		s.noteTerminal(j, Record{Op: OpCanceled, ID: j.id})
	}
}

// finishFailed records a failure.
func (s *Server) finishFailed(j *job, err error) {
	j.mu.Lock()
	changed := !j.state.Terminal()
	if changed {
		j.state = JobFailed
		j.err = err
	}
	j.mu.Unlock()
	if changed {
		s.noteTerminal(j, Record{Op: OpFailed, ID: j.id, Error: err.Error()})
	}
}

// noteTerminal runs exactly once per job as it reaches a terminal
// state: it releases the job's admission footprint and journals the
// transition.
func (s *Server) noteTerminal(j *job, rec Record) {
	s.mu.Lock()
	if j.accounted {
		j.accounted = false
		s.admittedBytes -= j.foot
	}
	s.mu.Unlock()
	s.journalAppend(rec)
}
