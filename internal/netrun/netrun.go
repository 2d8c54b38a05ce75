// Package netrun is the real multi-process distributed runtime: worker
// processes execute one rank of a Parameterized Task Graph each and
// communicate over TCP loopback or unix sockets, turning the simulated
// cluster of internal/simexec into actual OS processes.
//
// The design follows the same lineage as the simulator. Dataflow is
// TaskTorrent-style one-sided active messages with rank-local dependency
// counting: every rank holds the full graph's structure (it is small;
// payload data is what must not be replicated) — for a CCSD job the one
// skeleton of the job's ccsd.CompiledPlan, resolved once per process
// and shared by the ranks in it — but counts dependencies and schedules
// only the instances whose affinity maps to it, so no rank holds a
// global tracker. Completing a task sends each remote successor an
// activation message carrying the payload; local successors are
// delivered in-memory. The package has no
// worker loop of its own: each rank runs its ready instances on a
// runtime.Executor — the same sharded queues, park/unpark, stealing,
// worker lending and per-worker Ctx reuse the shared-memory runtime.Run
// uses — and adds only what makes it a rank, through the executor's
// hooks: route a completion's payloads to the local tracker or the
// wire, and report completions. That is TaskTorrent's structure too: a
// shared-memory tasking core with an active-message layer beside it,
// not a second runtime. Pop order, queue pinning, and steal-victim
// choice are therefore identical across the three backends by
// construction (and the conformance suite in internal/sched still
// checks it). A task runs on the rank its affinity names — stealing
// stays inside a rank, as PaRSEC's does (§IV-D) — or, after a takeover,
// on that rank's heir.
//
// A coordinator process serves the Global Arrays surface (ordered
// accumulation with the same fold semantics as internal/ga, block
// fetches, NXTVAL) and owns the termination bitset and failure
// recovery: ranks that miss heartbeats are declared dead,
// an heir re-executes the dead rank's subgraph, and the live ranks
// replay their retained activation logs to the heir. Every wire message
// is carried by an at-least-once reliable channel with the
// retry/backoff state machine ported from simexec's virtual comm
// threads; duplicate deliveries are suppressed at three layers (channel
// ids, tracker flows, accumulation tags), which is what keeps the final
// energy bitwise identical to the single-process run under drops,
// severed connections, and kill -9.
package netrun

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"parsec/internal/fault"
	"parsec/internal/obsv"
	"parsec/internal/ptg"
	"parsec/internal/sched"
	"parsec/internal/trace"
)

// coordRank is the coordinator's rank id in the wire protocol and the
// routing tables; worker ranks are 0..Ranks-1.
const coordRank = -1

// ErrCanceled is returned when Config.Cancel fires mid-run: the
// coordinator broadcasts shutdown, workers halt between tasks, and the
// run ends without a result.
var ErrCanceled = errors.New("netrun: run canceled")

// Config controls a distributed run. The zero value of optional fields
// selects the documented defaults. A worker process receives it as JSON
// (StartProcesses), so every field crosses the process boundary except
// those tagged json:"-".
type Config struct {
	// Ranks is the number of worker processes (graph affinity nodes).
	Ranks int
	// Workers is the number of executor threads per rank (default 1).
	Workers int
	Policy  sched.Policy
	Queues  sched.QueueMode
	// Network selects the socket family: "tcp" (loopback, the default)
	// or "unix".
	Network string
	// Retry tunes the reliable channel; the zero value selects
	// DefaultRetryPolicy.
	Retry RetryPolicy
	// Fault, when non-nil, drives seeded payload- and ack-drops on every
	// send attempt (the DropProb/AckDropProb/Seed fields; the simulation-
	// time fields are ignored on real sockets).
	Fault *fault.Config
	// Sever, when non-nil, closes one link once after a frame count.
	Sever *SeverSpec
	// Recover enables rank-death detection and takeover: a rank silent
	// for deathTimeout is declared dead and its heir re-executes its
	// share of the graph.
	Recover bool
	// Deadline bounds the whole run (default 2 minutes).
	Deadline time.Duration

	// Cancel, when non-nil, aborts the run when it becomes readable:
	// the coordinator broadcasts shutdown and returns ErrCanceled.
	// Coordinator-side only — it does not cross the process boundary,
	// so it works identically for in-process and multi-process runs.
	Cancel <-chan struct{} `json:"-"`

	// SchedObserver, in-process runs only, receives every local
	// scheduling decision (the conformance suite's hook).
	SchedObserver sched.Observer `json:"-"`
}

const (
	// heartbeat is the interval of a rank's liveness status to the
	// coordinator.
	heartbeat = 25 * time.Millisecond
	// deathTimeout is how long a rank may go silent before the
	// coordinator declares it dead (with Recover).
	deathTimeout = 2 * time.Second
)

// withDefaults returns cfg with defaults filled in.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.Ranks <= 0 {
		return cfg, fmt.Errorf("netrun: Ranks %d", cfg.Ranks)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	switch cfg.Network {
	case "":
		cfg.Network = "tcp"
	case "tcp", "unix":
	default:
		return cfg, fmt.Errorf("netrun: network %q (want tcp or unix)", cfg.Network)
	}
	if cfg.Retry == (RetryPolicy{}) {
		cfg.Retry = DefaultRetryPolicy()
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 2 * time.Minute
	}
	if cfg.Fault != nil {
		if err := cfg.Fault.Validate(); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// listenSpec returns the (network, address) pair a rank listens on.
func (cfg Config) listenSpec(rank int) (string, string) {
	if cfg.Network == "unix" {
		p := filepath.Join(os.TempDir(), fmt.Sprintf("parsec-netrun-%d-r%d.sock", os.Getpid(), rank))
		os.Remove(p) // stale socket from a previous crashed run
		return "unix", p
	}
	return "tcp", "127.0.0.1:0"
}

// CommSnapshot is one process's wire-activity counters at run end.
type CommSnapshot struct {
	MsgsSent        int64 `json:"msgs_sent"`
	BytesSent       int64 `json:"bytes_sent"`
	AcksReceived    int64 `json:"acks_received"`
	Retries         int64 `json:"retries"`
	RetransmitBytes int64 `json:"retransmit_bytes"`
	BackoffNs       int64 `json:"backoff_ns"`
	DropsInjected   int64 `json:"drops_injected"`
	AckDropsInj     int64 `json:"ack_drops_injected"`
	DupSuppressed   int64 `json:"dup_suppressed"`
	Reconnects      int64 `json:"reconnects"`
	Severs          int64 `json:"severs"`
	TransferOps     int64 `json:"transfer_ops"`
	TransferBytes   int64 `json:"transfer_bytes"`
	AccOps          int64 `json:"acc_ops"`
	AccBytes        int64 `json:"acc_bytes"`
	GetOps          int64 `json:"get_ops"`
	GetBytes        int64 `json:"get_bytes"`
	// Tile ownership: activations whose tile went out by reference, and
	// the pooled tiles that came in — each of which was returned when its
	// consumer completed, returned on arrival as a duplicate, or passed on
	// by its consumer (or is still held by a task that never ran here).
	TilesBorrowed  int64 `json:"tiles_borrowed"`
	TilesReceived  int64 `json:"tiles_received"`
	TilesReturned  int64 `json:"tiles_returned"`
	TilesDuplicate int64 `json:"tiles_duplicate"`
	TilesPassedOn  int64 `json:"tiles_passed_on"`
}

// snapshot captures the counters.
func (c *commCounters) snapshot() CommSnapshot {
	return CommSnapshot{
		MsgsSent:        c.msgsSent.Load(),
		BytesSent:       c.bytesSent.Load(),
		AcksReceived:    c.acksReceived.Load(),
		Retries:         c.retries.Load(),
		RetransmitBytes: c.retransmitBytes.Load(),
		BackoffNs:       c.backoffNs.Load(),
		DropsInjected:   c.dropsInjected.Load(),
		AckDropsInj:     c.ackDropsInj.Load(),
		DupSuppressed:   c.dupSuppressed.Load(),
		Reconnects:      c.reconnects.Load(),
		Severs:          c.severs.Load(),
		TransferOps:     c.transferOps.Load(),
		TransferBytes:   c.transferBytes.Load(),
		AccOps:          c.accOps.Load(),
		AccBytes:        c.accBytes.Load(),
		GetOps:          c.getOps.Load(),
		GetBytes:        c.getBytes.Load(),
		TilesBorrowed:   c.tilesBorrowed.Load(),
		TilesReceived:   c.tilesReceived.Load(),
		TilesReturned:   c.tilesReturned.Load(),
		TilesDuplicate:  c.tilesDuplicate.Load(),
		TilesPassedOn:   c.tilesPassedOn.Load(),
	}
}

// RankReport is one worker process's final self-report, shipped to the
// coordinator as the msgDoneInfo body: the counters as JSON, the spans
// as its binary section.
type RankReport struct {
	Rank    int            `json:"rank"`
	Tasks   int            `json:"tasks"`
	ByClass map[string]int `json:"by_class,omitempty"`
	Comm    CommSnapshot   `json:"comm"`
	// Spans is one span per task the rank executed, as its executor's
	// Report hands them back.
	Spans []trace.Span `json:"-"`
}

// Result summarizes a completed distributed run.
type Result struct {
	// Energy is the correlation energy computed from the GA server's
	// folded output array; HasEnergy is false for jobs without an
	// energy functional (the conformance DAGs).
	Energy    float64
	HasEnergy bool
	// Tasks is the number of distinct task instances completed (each
	// counted once, however many ranks re-executed it during recovery).
	Tasks   int
	Ranks   int
	Elapsed time.Duration
	// Takeovers is the number of dead ranks recovered by an heir.
	Takeovers int
	PerRank   []RankReport
	// Comm and Recovery aggregate the per-rank wire counters in the
	// observability layer's vocabulary.
	Comm     obsv.CommStats
	Recovery obsv.Recovery

	// graph builds the job's graph, whose skeleton is the Seq -> TaskRef
	// table Trace labels spans from and Profile reads classes from; nil
	// leaves them labelled by number.
	graph     func() *ptg.Graph
	traceOnce sync.Once
	trace     *trace.Trace
}

// skeleton resolves the job's graph structure, or nil.
func (r *Result) skeleton() *ptg.Skeleton {
	if r.graph == nil {
		return nil
	}
	sk, _ := r.graph().Skeleton()
	return sk
}

// Trace returns one event per executed task across all ranks (rows are
// (rank, worker) pairs), ready for the trace/obsv pipelines. It is built
// on first call from the spans the ranks reported: a run nobody asks for
// the trace of formats no label.
func (r *Result) Trace() *trace.Trace {
	r.traceOnce.Do(func() {
		sk := r.skeleton()
		r.trace = trace.New()
		for _, rep := range r.PerRank {
			r.trace.AddSpans(rep.Rank, rep.Spans, sk)
		}
	})
	return r.trace
}

// Profile builds the observability profile of the run: the same
// obsv.Profile the simulator and shared-memory runtime feed, computed
// straight from the ranks' spans — no trace is built for it.
func (r *Result) Profile(name string) *obsv.Profile {
	byRank := make([][]trace.Span, r.Ranks)
	for _, rep := range r.PerRank {
		if rep.Rank >= 0 && rep.Rank < len(byRank) {
			byRank[rep.Rank] = rep.Spans
		}
	}
	p := obsv.FromSpans(name, byRank, r.skeleton())
	p.SetComm(r.Comm)
	p.SetRecovery(r.Recovery)
	return p
}

// aggregate folds one rank's report into the result totals.
func (r *Result) aggregate(rep RankReport) {
	r.PerRank = append(r.PerRank, rep)
	c := rep.Comm
	r.Comm.Transfers += c.TransferOps
	r.Comm.TotalBytes += c.BytesSent
	r.Comm.AccOps += c.AccOps
	r.Comm.AccBytes += c.AccBytes
	r.Comm.GetOps += c.GetOps
	r.Comm.GetBytes += c.GetBytes
	r.Recovery.Retries += int(c.Retries)
	r.Recovery.Drops += int(c.DropsInjected)
	r.Recovery.AckDrops += int(c.AckDropsInj)
	r.Recovery.DupSuppressed += int(c.DupSuppressed)
	r.Recovery.BackoffTime += c.BackoffNs
	r.Recovery.RetransmitBytes += c.RetransmitBytes
}
