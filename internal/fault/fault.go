// Package fault provides a deterministic, seeded fault-injection model
// for the discrete-event cluster simulation. It perturbs three layers of
// the machine model — per-node compute speed (stragglers), per-transfer
// network latency (spikes), and the Global Arrays service paths (NxtVal
// and ACC hiccups) — so the cost of each on a schedule can be measured
// reproducibly. Every perturbation slows work down and none loses it,
// because the real runtimes keep every task on its affinity node and
// TCP delivers every frame.
//
// Every concern draws from its own seeded RNG stream, so adding a fault
// site to one layer never shifts the sequence observed by another, and
// the same Config always produces the same perturbation schedule. The
// Injector also accumulates an attribution ledger (Stats): how much
// excess time each fault class injected, which the observability layer
// turns into the "slowdown attribution" section of a profile report.
//
// The injector is intended for the single-threaded discrete-event
// engine and is not safe for concurrent use; real-runtime straggler
// tests use the runtime's task-delay hook with a plain closure instead.
package fault

import (
	"fmt"
	"sort"

	"parsec/internal/sim"
)

// Straggler marks one node as computing slower than nominal: every
// compute, GEMM, and memory charge on that node is scaled by Factor.
type Straggler struct {
	Node   int
	Factor float64 // >= 1; 4 means the node runs at quarter speed
}

// Config describes a perturbation schedule. The zero value injects
// nothing; probabilities are per-event in [0, 1].
type Config struct {
	// Seed derives the per-concern RNG streams. Two injectors with the
	// same Config produce identical schedules.
	Seed uint64

	// Stragglers lists slowed-down nodes.
	Stragglers []Straggler

	// SpikeProb is the probability a transfer suffers SpikeLatency of
	// extra delay before the wire charge.
	SpikeProb    float64
	SpikeLatency sim.Time

	// NxtValProb/NxtValDelay model a hiccup in the shared-counter
	// service: the caller's RTT stretches by NxtValDelay.
	NxtValProb  float64
	NxtValDelay sim.Time
	// AccProb/AccDelay model the same for the remote-accumulate service.
	AccProb  float64
	AccDelay sim.Time
}

// Validate reports the first malformed field.
func (c Config) Validate() error {
	for _, s := range c.Stragglers {
		if s.Node < 0 {
			return fmt.Errorf("fault: straggler node %d < 0", s.Node)
		}
		if s.Factor < 1 {
			return fmt.Errorf("fault: straggler factor %g < 1 (node %d)", s.Factor, s.Node)
		}
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"SpikeProb", c.SpikeProb}, {"NxtValProb", c.NxtValProb}, {"AccProb", c.AccProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s %g outside [0,1]", p.name, p.v)
		}
	}
	if c.SpikeLatency < 0 || c.NxtValDelay < 0 || c.AccDelay < 0 {
		return fmt.Errorf("fault: negative fault latency")
	}
	return nil
}

// Stats is the attribution ledger: counts and injected excess time per
// fault class, accumulated as the simulation runs.
type Stats struct {
	Spikes int64
	// SpikeTime is total extra latency from spikes.
	SpikeTime sim.Time

	NxtValHiccups int64
	NxtValTime    sim.Time
	AccHiccups    int64
	AccTime       sim.Time

	// StragglerExcess maps node -> total extra compute/GEMM/memory time
	// injected on that node beyond the nominal charge.
	StragglerExcess map[int]sim.Time
}

// TotalStragglerExcess sums the per-node straggler excess.
func (s Stats) TotalStragglerExcess() sim.Time {
	var t sim.Time
	for _, v := range s.StragglerExcess {
		t += v
	}
	return t
}

// StragglerNodes returns the slowed nodes in ascending order, for
// deterministic report rendering.
func (s Stats) StragglerNodes() []int {
	nodes := make([]int, 0, len(s.StragglerExcess))
	for n := range s.StragglerExcess {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	return nodes
}

// Injector draws fault decisions from per-concern RNG streams and keeps
// the attribution ledger. A nil *Injector is valid and injects nothing.
type Injector struct {
	cfg     Config
	factor  map[int]float64 // node -> compute slowdown factor
	xferRNG *sim.RNG
	gaRNG   *sim.RNG
	stats   Stats
}

// New builds an injector for the given schedule. It panics if the
// config fails Validate, mirroring cluster.New's contract.
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	inj := &Injector{
		cfg:     cfg,
		factor:  make(map[int]float64, len(cfg.Stragglers)),
		xferRNG: sim.NewRNG(cfg.Seed ^ 0x5bf03635aca33e3b),
		gaRNG:   sim.NewRNG(cfg.Seed ^ 0x27d4eb2f165667c5),
	}
	inj.stats.StragglerExcess = make(map[int]sim.Time)
	for _, s := range cfg.Stragglers {
		inj.factor[s.Node] = s.Factor
	}
	return inj
}

// Config returns the schedule the injector was built with.
func (inj *Injector) Config() Config { return inj.cfg }

// ScaleCompute stretches a nominal duration by the node's straggler
// factor and records the excess in the ledger. Nil-safe.
func (inj *Injector) ScaleCompute(node int, d sim.Time) sim.Time {
	if inj == nil || d <= 0 {
		return d
	}
	f, ok := inj.factor[node]
	if !ok || f <= 1 {
		return d
	}
	scaled := sim.Time(float64(d) * f)
	inj.stats.StragglerExcess[node] += scaled - d
	return scaled
}

// ScaleAmount stretches a resource amount (e.g. processor-sharing GEMM
// work or memory bytes-time) by the node's straggler factor, recording
// the excess of the base charge. The excess recorded is approximate for
// shared resources — contention can stretch it further — but it keeps
// the attribution ledger conservative and deterministic.
func (inj *Injector) ScaleAmount(node int, amount float64) float64 {
	if inj == nil || amount <= 0 {
		return amount
	}
	f, ok := inj.factor[node]
	if !ok || f <= 1 {
		return amount
	}
	return amount * f
}

// NoteExcess records straggler excess time measured by the caller, used
// for shared-resource charges where the injector only scaled the amount.
func (inj *Injector) NoteExcess(node int, d sim.Time) {
	if inj == nil || d <= 0 {
		return
	}
	if _, ok := inj.factor[node]; !ok {
		return
	}
	inj.stats.StragglerExcess[node] += d
}

// Transfer returns the latency spike charged before one transfer's wire
// time between distinct nodes (0 when the transfer runs clean). Local
// moves never fault. Nil-safe.
func (inj *Injector) Transfer(from, to int) sim.Time {
	if inj == nil || from == to || inj.cfg.SpikeProb <= 0 {
		return 0
	}
	if inj.xferRNG.Float64() < inj.cfg.SpikeProb {
		inj.stats.Spikes++
		inj.stats.SpikeTime += inj.cfg.SpikeLatency
		return inj.cfg.SpikeLatency
	}
	return 0
}

// NxtValHiccup returns the extra delay for one NxtVal RPC (0 when the
// service is healthy this time). Nil-safe.
func (inj *Injector) NxtValHiccup() sim.Time {
	if inj == nil || inj.cfg.NxtValProb <= 0 {
		return 0
	}
	if inj.gaRNG.Float64() < inj.cfg.NxtValProb {
		inj.stats.NxtValHiccups++
		inj.stats.NxtValTime += inj.cfg.NxtValDelay
		return inj.cfg.NxtValDelay
	}
	return 0
}

// AccHiccup returns the extra delay for one remote accumulate (0 when
// healthy). Nil-safe.
func (inj *Injector) AccHiccup() sim.Time {
	if inj == nil || inj.cfg.AccProb <= 0 {
		return 0
	}
	if inj.gaRNG.Float64() < inj.cfg.AccProb {
		inj.stats.AccHiccups++
		inj.stats.AccTime += inj.cfg.AccDelay
		return inj.cfg.AccDelay
	}
	return 0
}

// Stats returns a copy of the attribution ledger (the map is cloned so
// callers can keep it past further simulation).
func (inj *Injector) Stats() Stats {
	if inj == nil {
		return Stats{}
	}
	s := inj.stats
	s.StragglerExcess = make(map[int]sim.Time, len(inj.stats.StragglerExcess))
	for k, v := range inj.stats.StragglerExcess {
		s.StragglerExcess[k] = v
	}
	return s
}
