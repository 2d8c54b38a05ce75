// Package netrun is the real multi-process distributed runtime: worker
// processes execute one rank of a Parameterized Task Graph each and
// communicate over TCP loopback, turning the simulated
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
// activation message carrying the payload — or, for an input block the
// successor's rank already received, naming it — and local successors
// are delivered in-memory. The package has no
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
// A coordinator process serves the Global Arrays surface — the one
// call that leaves a rank, ordered accumulation with the same fold
// semantics as internal/ga, folding each output block into the energy
// as it completes; there is no GET and no NXTVAL, as a PaRSEC task
// reads its inputs locally — and owns the termination bitset and
// failure recovery: ranks that miss heartbeats are declared dead, an
// heir re-executes the dead rank's subgraph, and the live ranks replay
// their retained activation logs to the heir. Every wire message
// is carried by a reliable channel that trusts TCP: a frame is written
// again only when its connection dies, and a refused dial means the
// peer is gone. Duplicate deliveries are suppressed at three layers
// (channel ids, tracker flows, accumulation tags), which is what keeps
// the final energy bitwise identical to the single-process run under
// severed connections and kill -9.
package netrun

import (
	"fmt"
	"time"

	"parsec/internal/obsv"
	"parsec/internal/ptg"
	"parsec/internal/sched"
	"parsec/internal/trace"
)

// coordRank is the coordinator's rank id in the wire protocol and the
// routing tables; worker ranks are 0..Ranks-1.
const coordRank = -1

// rankName names a rank id in an error: "rank 2", or "coordinator".
func rankName(rank int) string {
	if rank == coordRank {
		return "coordinator"
	}
	return fmt.Sprintf("rank %d", rank)
}

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
	// Sever, when non-nil, closes one link once after a frame count.
	Sever *SeverSpec
	// Recover enables rank-death detection and takeover: a rank silent
	// for deathTimeout is declared dead and its heir re-executes its
	// share of the graph.
	Recover bool
	// Deadline bounds the whole run (default 2 minutes).
	Deadline time.Duration

	// Cancel, when non-nil, aborts the run when it becomes readable:
	// the coordinator broadcasts shutdown, workers halt between tasks,
	// and the run returns runtime.ErrCanceled, the error an in-process
	// Execute returns.
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
	if cfg.Deadline <= 0 {
		cfg.Deadline = 2 * time.Minute
	}
	return cfg, nil
}

// CommSnapshot is one process's wire-activity counters at run end.
type CommSnapshot struct {
	MsgsSent        int64 `json:"msgs_sent"`
	BytesSent       int64 `json:"bytes_sent"`
	AcksReceived    int64 `json:"acks_received"`
	Retries         int64 `json:"retries"`
	RetransmitBytes int64 `json:"retransmit_bytes"`
	DupSuppressed   int64 `json:"dup_suppressed"`
	Reconnects      int64 `json:"reconnects"`
	Severs          int64 `json:"severs"`
	TransferOps     int64 `json:"transfer_ops"`
	TransferBytes   int64 `json:"transfer_bytes"`
	AccOps          int64 `json:"acc_ops"`
	AccBytes        int64 `json:"acc_bytes"`
	// Tile ownership: activations whose tile went out by reference, and
	// the pooled tiles that came in — each of which was returned when its
	// consumer completed, returned on arrival (as a duplicate, or as an
	// input block already resident), passed on by its consumer, or
	// adopted into the rank's input replica (or is still held by a task
	// that never ran here). ReplicaRefills counts tag-only activations
	// that found their input block absent and filled it locally: 0 on a
	// link that loses nothing.
	TilesBorrowed  int64 `json:"tiles_borrowed"`
	TilesReceived  int64 `json:"tiles_received"`
	TilesReturned  int64 `json:"tiles_returned"`
	TilesDuplicate int64 `json:"tiles_duplicate"`
	TilesPassedOn  int64 `json:"tiles_passed_on"`
	TilesAdopted   int64 `json:"tiles_adopted"`
	ReplicaRefills int64 `json:"replica_refills"`
}

// snapshot captures the counters.
func (c *commCounters) snapshot() CommSnapshot {
	return CommSnapshot{
		MsgsSent:        c.msgsSent.Load(),
		BytesSent:       c.bytesSent.Load(),
		AcksReceived:    c.acksReceived.Load(),
		Retries:         c.retries.Load(),
		RetransmitBytes: c.retransmitBytes.Load(),
		DupSuppressed:   c.dupSuppressed.Load(),
		Reconnects:      c.reconnects.Load(),
		Severs:          c.severs.Load(),
		TransferOps:     c.transferOps.Load(),
		TransferBytes:   c.transferBytes.Load(),
		AccOps:          c.accOps.Load(),
		AccBytes:        c.accBytes.Load(),
		TilesBorrowed:   c.tilesBorrowed.Load(),
		TilesReceived:   c.tilesReceived.Load(),
		TilesReturned:   c.tilesReturned.Load(),
		TilesDuplicate:  c.tilesDuplicate.Load(),
		TilesPassedOn:   c.tilesPassedOn.Load(),
		TilesAdopted:    c.tilesAdopted.Load(),
		ReplicaRefills:  c.replicaRefills.Load(),
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
	// Energy is the correlation energy the GA server folded from the
	// output blocks as they completed; HasEnergy is false for jobs
	// without an energy functional (the conformance DAGs).
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
	// table Profile reads classes from; nil leaves them unnamed.
	graph func() *ptg.Graph
}

// skeleton resolves the job's graph structure, or nil.
func (r *Result) skeleton() *ptg.Skeleton {
	if r.graph == nil {
		return nil
	}
	sk, _ := r.graph().Skeleton()
	return sk
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
	r.Recovery.Retries += int(c.Retries)
	r.Recovery.DupSuppressed += int(c.DupSuppressed)
	r.Recovery.RetransmitBytes += c.RetransmitBytes
}
