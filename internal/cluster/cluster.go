// Package cluster models the distributed-memory machine on which the
// reproduced experiments run: a set of nodes, each with a fixed number of
// cores, a shared memory subsystem, and a NIC, connected by a network with
// a fixed latency. It substitutes for the 32-node Cascade partition used
// in the paper (see DESIGN.md §2).
//
// The model is first-order but mechanistic: cores execute task bodies for
// flops/rate seconds, memory-bound phases move bytes through a node-wide
// processor-sharing bandwidth, transfers move bytes through the
// requester's NIC, and the Global Arrays packing factor inflates the cost
// of strided block transfers. All constants live in Config so experiments
// can sweep them.
package cluster

import (
	"fmt"

	"parsec/internal/fault"
	"parsec/internal/sim"
)

// Config holds every knob of the machine model.
type Config struct {
	Nodes        int     // number of nodes
	CoresPerNode int     // worker cores usable per node
	CoreGFlops   float64 // per-core dense GEMM rate, GFlop/s
	MemBWBytes   float64 // per-node memory bandwidth shared by all cores, bytes/s
	NICBWBytes   float64 // per-node NIC injection bandwidth, bytes/s
	NetLatency   sim.Time
	AtomicRTT    sim.Time // round-trip of one remote atomic (NXTVAL)
	MutexLock    sim.Time // system-wide cost of locking the node write mutex
	MutexUnlock  sim.Time
	// GemmMemTraffic scales the memory traffic of a GEMM kernel relative
	// to its operand footprint (A+B+C bytes): blocked DGEMM re-streams
	// panels from DRAM several times, so concurrent GEMMs on one node
	// contend for memory bandwidth and per-node throughput saturates
	// below core count — the intra-node scaling ceiling visible in every
	// Fig 9 series.
	GemmMemTraffic float64
	// GemmContention is the co-running degradation coefficient of GEMM
	// kernels on one node: with n concurrent GEMMs each runs at
	// CoreGFlops / (1 + GemmContention*(n-1)). Real nodes saturate well
	// below cores x per-core peak (shared caches, memory bandwidth, turbo
	// scaling, runtime helper threads); the paper's own Fig 9 shows
	// PaRSEC's per-node throughput saturating near 3x its one-core rate
	// at 15 cores, which this coefficient is calibrated to. 0 disables.
	GemmContention float64
	// GemmTeam models intra-task parallel GEMM (the runtime's worker
	// lending): each large GEMM kernel is split across up to GemmTeam
	// cores of its node, finishing in 1/(1 + GemmTeamEff*(GemmTeam-1))
	// of its serial time. The lent cores are drawn from the same node
	// budget, so the speedup only materializes when the schedule leaves
	// cores idle — exactly the regime lending targets. 0 or 1 disables
	// (the default; calibrated experiment outputs are unchanged).
	GemmTeam int
	// GemmTeamEff is the per-extra-core efficiency of a split GEMM, in
	// [0,1]: column partitioning duplicates A-panel packing and shares
	// memory bandwidth, so each helper contributes less than a full
	// core. Ignored unless GemmTeam >= 2.
	GemmTeamEff float64
	// GAStrideLatency is the per-contiguous-run cost of a remote Global
	// Arrays GET/ACC, charged on the requester: a strided 4-index block
	// moves as one message per row, and this per-message overhead is why
	// GET_HASH_BLOCK rectangles in Fig 13 are comparable in length to
	// GEMMs.
	GAStrideLatency sim.Time
	// GAServiceBW is the per-node bandwidth at which the Global Arrays
	// one-sided layer services remote strided accesses to data this node
	// owns (the ARMCI/progress-engine rate, far below the NIC rate). It
	// is the hard floor of the original code's communication time.
	GAServiceBW float64
	// GAContention is the co-running degradation coefficient of the GA
	// service engine. Values above 1 make aggregate service throughput
	// fall as concurrent remote accesses pile up (progress-engine lock
	// contention) — the reason the original code deteriorates beyond its
	// best cores/node point (§V) and shared-counter-style structures are
	// "bound to become inefficient at large scale" (§III-A).
	GAContention float64
	// CacheWarm scales the memory traffic of an operation whose input was
	// just produced by the same worker (locality discount; drives the
	// v5-over-v3 advantage the paper attributes to data locality).
	CacheWarm float64
	// JitterFrac perturbs modeled durations by ±frac uniformly, standing
	// in for machine noise; 0 disables.
	JitterFrac float64
	Seed       uint64
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cluster: Nodes = %d", c.Nodes)
	case c.CoresPerNode <= 0:
		return fmt.Errorf("cluster: CoresPerNode = %d", c.CoresPerNode)
	case !(c.CoreGFlops > 0):
		return fmt.Errorf("cluster: CoreGFlops = %v", c.CoreGFlops)
	case !(c.MemBWBytes > 0):
		return fmt.Errorf("cluster: MemBWBytes = %v", c.MemBWBytes)
	case !(c.NICBWBytes > 0):
		return fmt.Errorf("cluster: NICBWBytes = %v", c.NICBWBytes)
	case !(c.GAServiceBW > 0):
		return fmt.Errorf("cluster: GAServiceBW = %v", c.GAServiceBW)
	case c.GAStrideLatency < 0:
		return fmt.Errorf("cluster: GAStrideLatency = %v", c.GAStrideLatency)
	case c.GemmContention < 0 || c.GemmContention > 1:
		return fmt.Errorf("cluster: GemmContention = %v (must be in [0,1])", c.GemmContention)
	case c.GAContention < 0 || c.GAContention > 4:
		return fmt.Errorf("cluster: GAContention = %v (must be in [0,4])", c.GAContention)
	case c.GemmMemTraffic < 0:
		return fmt.Errorf("cluster: GemmMemTraffic = %v (must be >= 0)", c.GemmMemTraffic)
	case c.GemmTeam < 0 || c.GemmTeam > c.CoresPerNode:
		return fmt.Errorf("cluster: GemmTeam = %d (must be in [0,CoresPerNode])", c.GemmTeam)
	case c.GemmTeamEff < 0 || c.GemmTeamEff > 1:
		return fmt.Errorf("cluster: GemmTeamEff = %v (must be in [0,1])", c.GemmTeamEff)
	case c.CacheWarm <= 0 || c.CacheWarm > 1:
		return fmt.Errorf("cluster: CacheWarm = %v (must be in (0,1])", c.CacheWarm)
	}
	return nil
}

// CascadeLike returns a configuration sized after one 32-node partition of
// the PNNL Cascade system used in the paper's evaluation (§V): dual-socket
// Xeon nodes (16 usable cores), FDR InfiniBand, Global Arrays over MPI.
// Rates are calibrated, not measured (see EXPERIMENTS.md).
func CascadeLike() Config {
	return Config{
		Nodes:           32,
		CoresPerNode:    16,
		CoreGFlops:      18,
		MemBWBytes:      55e9,
		NICBWBytes:      1.2e9,
		NetLatency:      3 * sim.Microsecond,
		AtomicRTT:       6 * sim.Microsecond,
		MutexLock:       2 * sim.Microsecond,
		MutexUnlock:     2 * sim.Microsecond,
		GemmMemTraffic:  8,
		GemmContention:  0.286,
		GAStrideLatency: 47 * sim.Microsecond,
		GAServiceBW:     0.21e9,
		GAContention:    0,
		CacheWarm:       0.35,
		JitterFrac:      0.04,
		Seed:            0x5eed,
	}
}

// Node is one machine node: identity plus its shared resources.
type Node struct {
	ID    int
	MemBW *sim.PS
	NIC   *sim.PS
	// GemmPS is the node's aggregate GEMM throughput (flops/s), with a
	// per-flow cap at one core's rate.
	GemmPS *sim.PS
	// GASrv is the node's Global Arrays one-sided service engine: remote
	// strided accesses to blocks this node owns are served through it.
	GASrv *sim.PS
	// WriteMutex is the node-wide mutex protecting Global Array updates by
	// the PaRSEC WRITE tasks (§IV-A).
	WriteMutex *sim.Mutex
}

// Machine instantiates the model on a simulation engine.
type Machine struct {
	Cfg   Config
	Eng   *sim.Engine
	Nodes []*Node
	rng   *sim.RNG
	// faults, when non-nil, perturbs the machine: straggler nodes run
	// compute/GEMM/memory charges slower, and the executor layers draw
	// transfer and GA-service faults from it. Nil means fault-free.
	faults *fault.Injector
}

// New builds a machine from the configuration. It panics on an invalid
// configuration (programmer error).
func New(eng *sim.Engine, cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{Cfg: cfg, Eng: eng, rng: sim.NewRNG(cfg.Seed)}
	m.Nodes = make([]*Node, cfg.Nodes)
	for i := range m.Nodes {
		gemm := sim.NewPS(eng, fmt.Sprintf("gemm%d", i), float64(cfg.CoresPerNode+1)*cfg.CoreGFlops*1e9)
		gemm.SetPerFlowCap(cfg.CoreGFlops * 1e9)
		if cfg.GemmContention > 0 {
			gemm.SetContention(cfg.GemmContention)
		}
		m.Nodes[i] = &Node{
			ID:         i,
			MemBW:      sim.NewPS(eng, fmt.Sprintf("mem%d", i), cfg.MemBWBytes),
			NIC:        sim.NewPS(eng, fmt.Sprintf("nic%d", i), cfg.NICBWBytes),
			GemmPS:     gemm,
			GASrv:      newGASrv(eng, i, cfg),
			WriteMutex: sim.NewMutex(eng, cfg.MutexLock, cfg.MutexUnlock),
		}
	}
	return m
}

// newGASrv builds one node's GA one-sided service engine.
func newGASrv(eng *sim.Engine, i int, cfg Config) *sim.PS {
	srv := sim.NewPS(eng, fmt.Sprintf("gasrv%d", i), cfg.GAServiceBW)
	if cfg.GAContention > 0 {
		srv.SetPerFlowCap(cfg.GAServiceBW)
		srv.SetContention(cfg.GAContention)
	}
	return srv
}

// SetFaults installs a fault injector on the machine. Pass nil to
// restore fault-free behavior. Executors built on this machine consult
// the same injector for transfer and GA-service faults, so one seeded
// schedule perturbs every layer coherently.
func (m *Machine) SetFaults(inj *fault.Injector) { m.faults = inj }

// Faults returns the installed injector (nil when fault-free). A nil
// injector is safe to call, so callers need not check.
func (m *Machine) Faults() *fault.Injector { return m.faults }

func (m *Machine) jitter(d sim.Time) sim.Time {
	return m.rng.Jitter(d, m.Cfg.JitterFrac)
}

// ComputeTime returns the modeled duration of a compute-bound kernel with
// the given flop count, before jitter.
func (m *Machine) ComputeTime(flops int64) sim.Time {
	return sim.Duration(float64(flops) / (m.Cfg.CoreGFlops * 1e9))
}

// Op is one machine charge as a small steppable value: a hold, a kernel,
// a memory phase, a transfer, a Global Arrays access, or a lock or
// unlock of a node's write mutex. A callback actor plays it with Step,
// phase by phase, and each phase draws its jitter and fault scaling when
// it starts, so the draws follow virtual time.
type Op struct {
	kind  opKind
	phase uint8
	warm  bool
	node  int // the node charged; the requester of a transfer or GA access
	peer  int // the other end of a transfer, the owner of a GA block
	rows  int
	a, b  int64 // per kind, as its constructor names them
}

type opKind uint8

const (
	opHold opKind = iota
	opCompute
	opMem
	opGemm
	opTransfer
	opGALocal
	opGARemote
	opGAGet
	opGAAcc
	opLock
	opUnlock
)

// HoldOp occupies the worker for d of virtual time.
func HoldOp(d sim.Time) Op { return Op{kind: opHold, a: int64(d)} }

// ComputeOp occupies a worker for a kernel of the given flop count plus
// its memory traffic through the node's shared bandwidth. warm marks the
// traffic as cache-resident (locality discount).
func ComputeOp(node int, flops, memBytes int64, warm bool) Op {
	return Op{kind: opCompute, node: node, a: flops, b: memBytes, warm: warm}
}

// MemoryOp occupies a worker for a memory-bound phase moving the given
// number of bytes through the node's shared memory bandwidth.
func MemoryOp(node int, bytes int64, warm bool) Op {
	return Op{kind: opMem, node: node, a: bytes, warm: warm}
}

// GemmOp occupies a worker for one GEMM kernel: its flops drawn through
// the node's aggregate GEMM throughput (capped per flow at one core's
// rate), plus its DRAM traffic — the operand footprint scaled by
// GemmMemTraffic — through the node's shared memory bandwidth.
func GemmOp(node int, flops, footprintBytes int64) Op {
	return Op{kind: opGemm, node: node, a: flops, b: footprintBytes}
}

// TransferOp moves bytes between nodes for the requester: network
// latency plus the bytes through the requesting node's NIC, shared with
// all concurrent traffic on that NIC. A local transfer (reqNode ==
// otherNode) costs one pass through node memory bandwidth instead.
func TransferOp(reqNode, otherNode int, bytes int64) Op {
	return Op{kind: opTransfer, node: reqNode, peer: otherNode, a: bytes}
}

// gaLocalOp is a Global Arrays strided access to a block owned by the
// local node: no wire, but still the library's locked gather/scatter
// path through the one-sided engine.
func gaLocalOp(node int, bytes int64) Op { return Op{kind: opGALocal, node: node, a: bytes} }

// gaRemoteOp is one remote Global Arrays strided GET or ACC: per-row
// message overhead on the requester, service through the owner's
// one-sided engine, and the raw bytes through the requester's NIC.
func gaRemoteOp(reqNode, owner int, bytes int64, rows int) Op {
	return Op{kind: opGARemote, node: reqNode, peer: owner, a: bytes, rows: rows}
}

// GAGetOp fetches a block owned by owner into reqNode's memory: a pass
// through node memory bandwidth when local, the remote strided path
// otherwise. rows is the number of contiguous runs in the block (its
// matrix row count). It is the charge of ga.Sim.GetOp.
func GAGetOp(reqNode, owner int, bytes int64, rows int) Op {
	return Op{kind: opGAGet, node: reqNode, peer: owner, a: bytes, rows: rows}
}

// GAAccOp accumulates a block from reqNode into owner's memory: a
// fault-injected service hiccup, if one is drawn, then the one-sided
// engine's locked update, local or remote. It is the charge of
// ga.Sim.AccOp.
func GAAccOp(reqNode, owner int, bytes int64, rows int) Op {
	return Op{kind: opGAAcc, node: reqNode, peer: owner, a: bytes, rows: rows}
}

// LockOp locks node's write mutex, paying its lock cost once admitted.
func LockOp(node int) Op { return Op{kind: opLock, node: node} }

// UnlockOp unlocks node's write mutex after paying its unlock cost.
func UnlockOp(node int) Op { return Op{kind: opUnlock, node: node} }

// Step plays op from where it stands for the owner of ev: it starts
// phases in order until one has to wait — it then returns false, and ev
// fires when the wait ends, to call Step again — or until the op is done,
// when it returns true.
func (m *Machine) Step(op *Op, ev *sim.Event) bool {
	for {
		switch m.start(op, ev) {
		case wait:
			return false
		case end:
			return true
		}
	}
}

// phaseResult is what starting one phase of an op came to.
type phaseResult uint8

const (
	next phaseResult = iota // the phase needed no wait
	wait                    // ev fires when the phase ends
	end                     // the op is done
)

// start starts op's current phase and moves the op to the next one. A
// phase the op's kind does not have ends it.
func (m *Machine) start(op *Op, ev *sim.Event) phaseResult {
	ph := op.phase
	op.phase++
	n := op.node
	switch op.kind {
	case opHold:
		if ph == 0 {
			return m.hold(ev, sim.Time(op.a))
		}
	case opCompute:
		if ph == 0 {
			flops := op.a
			*op = MemoryOp(n, op.b, op.warm)
			if flops > 0 {
				return m.hold(ev, m.faults.ScaleCompute(n, m.jitter(m.ComputeTime(flops))))
			}
			return next
		}
	case opMem:
		if ph == 0 && op.a > 0 {
			amount := float64(op.a)
			if op.warm {
				amount *= m.Cfg.CacheWarm
			}
			if scaled := m.faults.ScaleAmount(n, amount); scaled != amount {
				// Record the un-contended excess; contention can stretch
				// it more, so the attribution ledger stays conservative.
				m.faults.NoteExcess(n, sim.Duration((scaled-amount)/m.Cfg.MemBWBytes))
				amount = scaled
			}
			return use(ev, m.Nodes[n].MemBW, amount)
		}
	case opGemm:
		switch ph {
		case 0:
			if op.a <= 0 {
				return next
			}
			jf := float64(m.jitter(sim.Time(op.a)))
			if scaled := m.faults.ScaleAmount(n, jf); scaled != jf {
				m.faults.NoteExcess(n, sim.Duration((scaled-jf)/(m.Cfg.CoreGFlops*1e9)))
				jf = scaled
			}
			// Intra-task team split: the kernel's serial critical path
			// shrinks by the modeled team speedup (the lent cores' work
			// is hidden inside this flow rather than charged separately).
			if m.Cfg.GemmTeam >= 2 {
				jf /= 1 + m.Cfg.GemmTeamEff*float64(m.Cfg.GemmTeam-1)
			}
			return use(ev, m.Nodes[n].GemmPS, jf)
		case 1:
			if op.b > 0 {
				return use(ev, m.Nodes[n].MemBW, m.Cfg.GemmMemTraffic*float64(op.b))
			}
		}
	case opTransfer:
		switch ph {
		case 0:
			if op.a <= 0 {
				return end
			}
			if n == op.peer {
				op.phase = 2 // one pass through node memory, no wire
				return use(ev, m.Nodes[n].MemBW, float64(op.a))
			}
			return m.hold(ev, m.jitter(m.Cfg.NetLatency))
		case 1:
			return use(ev, m.Nodes[n].NIC, float64(op.a))
		}
	case opGALocal:
		if ph == 0 {
			return use(ev, m.Nodes[n].GASrv, float64(op.a))
		}
	case opGARemote:
		switch ph {
		case 0:
			if op.a <= 0 {
				return end
			}
			return m.hold(ev, m.jitter(sim.Time(max(op.rows, 1))*m.Cfg.GAStrideLatency))
		case 1:
			return use(ev, m.Nodes[op.peer].GASrv, float64(op.a))
		case 2:
			return m.hold(ev, m.jitter(m.Cfg.NetLatency))
		case 3:
			return use(ev, m.Nodes[n].NIC, float64(op.a))
		}
	case opGAGet:
		if ph == 0 {
			if n == op.peer {
				*op = MemoryOp(n, 2*op.a, false)
			} else {
				op.kind, op.phase = opGARemote, 0
			}
			return next
		}
	case opGAAcc:
		if ph == 0 {
			d := m.faults.AccHiccup()
			if n == op.peer {
				// Even a local accumulate goes through the GA library's
				// locked strided update path, serviced by the node's
				// one-sided engine.
				*op = gaLocalOp(n, op.a)
			} else {
				op.kind, op.phase = opGARemote, 0
			}
			if d > 0 {
				return m.hold(ev, d)
			}
			return next
		}
	case opLock:
		mu := m.Nodes[n].WriteMutex
		switch ph {
		case 0:
			if mu.Acquire(ev) {
				return wait
			}
			return next
		case 1:
			if mu.LockCost > 0 {
				return m.hold(ev, mu.LockCost)
			}
		}
	case opUnlock:
		mu := m.Nodes[n].WriteMutex
		switch ph {
		case 0:
			if mu.UnlockCost > 0 {
				return m.hold(ev, mu.UnlockCost)
			}
			return next
		case 1:
			mu.Release()
		}
	}
	return end
}

// hold arms ev to fire d from now.
func (m *Machine) hold(ev *sim.Event, d sim.Time) phaseResult {
	m.Eng.After(ev, d)
	return wait
}

// use starts a flow of amount on ps for ev's owner.
func use(ev *sim.Event, ps *sim.PS, amount float64) phaseResult {
	if ps.Start(ev, amount) {
		return wait
	}
	return next
}
