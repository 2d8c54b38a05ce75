package serve

import (
	"fmt"
	"sync"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/molecule"
	"parsec/internal/obsv"
	"parsec/internal/xform"
)

// JobState is one station of the job lifecycle state machine:
//
//	queued → running → done
//	   \        \----→ failed
//	    \-------------→ canceled
//
// Cancellation from queued skips execution entirely; cancellation from
// running halts the scheduler between tasks and drains the job's
// scratch shards before the state flips.
type JobState string

// The job lifecycle states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// CustomSystem describes a non-preset molecular system in a submit
// body, mirroring molecule.Custom.
type CustomSystem = molecule.CustomSpec

// JobSpec is the JSON submit body: which system to run, which variant,
// and the graph/execution shape. Zero values select server defaults.
type JobSpec struct {
	// Preset names a built-in system (water, benzene, uracil, porphin,
	// betacarotene). Exactly one of Preset and Custom must be set.
	Preset string `json:"preset,omitempty"`
	// Custom describes an explicit system instead of a preset.
	Custom *CustomSystem `json:"custom,omitempty"`
	// Variant is the algorithmic variant: v1..v5 or a flat recipe string
	// in the xform grammar; default v5.
	Variant string `json:"variant,omitempty"`
	// Workers overrides the per-job runtime worker count.
	Workers int `json:"workers,omitempty"`
	// SegmentHeight and WriteSpan are shorthand for appending a seg= /
	// span= term to the variant: positive values apply the SplitChain /
	// SpanWrites pass to its recipe (plan-affecting), and are validated
	// by those passes — a write span over fissioned writes (v1, v3) is
	// rejected at Submit exactly as "fission=writes,span=2" is.
	SegmentHeight int `json:"segment_height,omitempty"`
	WriteSpan     int `json:"write_span,omitempty"`
	// Nodes is the affinity modulus of the graph (plan-affecting);
	// default 1 (shared memory).
	Nodes int `json:"nodes,omitempty"`
}

// resolve validates the spec and returns what running it needs: the
// system, and the recipe (variant, segment_height, write_span) stands
// for. It is the only place a spec is interpreted — Submit and journal
// recovery both call it — so a spec either resolves the same way every
// time or is refused before it reaches an executor.
func (s JobSpec) resolve() (*molecule.System, ccsd.VariantSpec, error) {
	sys, err := molecule.Resolve(s.Preset, s.Custom)
	if err != nil {
		return nil, ccsd.VariantSpec{}, fmt.Errorf("serve: %w", err)
	}
	recipe, err := ccsd.VariantByName(s.Variant)
	if err != nil {
		return nil, ccsd.VariantSpec{}, err
	}
	var passes []xform.Pass
	if s.SegmentHeight > 0 {
		passes = append(passes, xform.SplitChain{Height: s.SegmentHeight})
	}
	if s.WriteSpan > 0 {
		passes = append(passes, xform.SpanWrites{Span: s.WriteSpan})
	}
	if len(passes) > 0 {
		if recipe, err = recipe.Append(passes...); err != nil {
			return nil, ccsd.VariantSpec{}, fmt.Errorf("serve: %w", err)
		}
	}
	return sys, recipe, nil
}

// Backend names which execution backend completed a job.
const (
	// BackendInProcess is the shared-memory runtime.Run fast path.
	BackendInProcess = "inproc"
	// BackendNetrun is the distributed netrun backend (worker ranks
	// over sockets, selected when the job footprint reaches
	// Config.NetrunBytes).
	BackendNetrun = "netrun"
)

// JobResult is the outcome of a finished job.
type JobResult struct {
	// Energy is the correlation-energy functional of the output tensor.
	Energy float64 `json:"energy"`
	// Tasks is the number of tasks the runtime executed.
	Tasks int `json:"tasks"`
	// Backend reports which backend executed the job (BackendInProcess
	// or BackendNetrun); Ranks is the worker rank count for netrun
	// jobs.
	Backend string `json:"backend,omitempty"`
	Ranks   int    `json:"ranks,omitempty"`
	// CacheHit reports whether the compiled plan came from the cache.
	CacheHit bool `json:"cache_hit"`
	// QueueNs, InspectNs, PlanNs, ExecNs are the lifecycle phase
	// durations; InspectNs and PlanNs are zero on a cache hit.
	QueueNs   int64 `json:"queue_ns"`
	InspectNs int64 `json:"inspect_ns"`
	PlanNs    int64 `json:"plan_ns"`
	ExecNs    int64 `json:"exec_ns"`
}

// JobStatus is the JSON shape of a status query.
type JobStatus struct {
	// ID is the server-assigned job identifier.
	ID string `json:"id"`
	// State is the current lifecycle state.
	State JobState `json:"state"`
	// PlanKey is the job's content key into the plan cache.
	PlanKey string `json:"plan_key"`
	// Spec echoes the submitted spec.
	Spec JobSpec `json:"spec"`
	// SubmittedNs is the submit time (unix nanoseconds).
	SubmittedNs int64 `json:"submitted_ns"`
	// FootprintBytes is the job's estimated resident tensor footprint,
	// the number memory admission and backend selection key off. Zero
	// when neither feature is enabled (the estimate is skipped).
	FootprintBytes int64 `json:"footprint_bytes,omitempty"`
	// Recovered marks jobs restored from the journal after a restart.
	Recovered bool `json:"recovered,omitempty"`
	// Error carries the failure message for failed jobs.
	Error string `json:"error,omitempty"`
	// Result is present once the job is done.
	Result *JobResult `json:"result,omitempty"`
}

// job is the server-side record of one submission.
type job struct {
	id        string
	spec      JobSpec
	sys       *molecule.System
	vspec     ccsd.VariantSpec
	key       string
	submitted time.Time
	// foot is the estimated tensor footprint; accounted tracks whether
	// it is currently counted against the server's memory budget (set
	// at admission, cleared exactly once at the terminal transition,
	// both under Server.mu). recovered marks journal-restored jobs.
	foot      int64
	accounted bool
	recovered bool
	// ranks is the netrun rank count the job runs on, 0 for the
	// in-process runtime (see Server.place).
	ranks int

	cancel     chan struct{}
	cancelOnce sync.Once

	mu      sync.Mutex
	state   JobState
	err     error
	result  *JobResult
	profile *obsv.Profile
}

// place chooses the job's backend from its footprint and the server's
// Config, and keys its plan for the node count that backend runs.
// Submit and journal recovery both call it, so a recovered job runs as
// the restarted server would place it, never by its journaled key.
func (s *Server) place(j *job) {
	j.foot = s.footprint(j.sys)
	if s.cfg.NetrunBytes > 0 && j.foot >= s.cfg.NetrunBytes {
		j.ranks = s.cfg.NetrunRanks
	}
	j.key = PlanKey(j.sys, j.vspec.MustShape(), j.nodes())
}

// nodes is the node count the job's plan is compiled for: the rank
// count of a netrun job, the spec's Nodes otherwise. A plan is a pure
// function of (system, shape, nodes), so a netrun job shares its cache
// entry with an in-process job of that many nodes.
func (j *job) nodes() int {
	if j.ranks > 0 {
		return j.ranks
	}
	return j.spec.Nodes
}

// requestCancel fires the job's cancel channel exactly once.
func (j *job) requestCancel() {
	j.cancelOnce.Do(func() { close(j.cancel) })
}

// canceled reports whether cancellation was requested.
func (j *job) canceled() bool {
	select {
	case <-j.cancel:
		return true
	default:
		return false
	}
}

// setState transitions the job, refusing to leave a terminal state.
func (j *job) setState(s JobState) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = s
	return true
}

// status snapshots the job for the HTTP surface.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:             j.id,
		State:          j.state,
		PlanKey:        j.key,
		Spec:           j.spec,
		SubmittedNs:    j.submitted.UnixNano(),
		FootprintBytes: j.foot,
		Recovered:      j.recovered,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.result != nil {
		r := *j.result
		st.Result = &r
	}
	return st
}
