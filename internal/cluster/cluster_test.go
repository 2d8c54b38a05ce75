package cluster

import (
	"testing"

	"parsec/internal/sim"
)

// small is a 4-node, 4-core cascade for fast tests.
func small() Config {
	c := CascadeLike()
	c.Nodes = 4
	c.CoresPerNode = 4
	return c
}

func cfgNoJitter() Config {
	c := small()
	c.JitterFrac = 0
	return c
}

// player is a test actor that makes the charges ops, in order, through
// its one event; ends[i] is the virtual time op i finished at.
type player struct {
	m    *Machine
	ev   sim.Event
	ops  []Op
	ends []sim.Time
}

// play starts a player of ops at the current virtual time.
func play(m *Machine, ops ...Op) *player {
	p := &player{m: m, ops: ops}
	p.ev.Bind(p.resume)
	m.Eng.After(&p.ev, 0)
	return p
}

func (p *player) resume() {
	for len(p.ends) < len(p.ops) {
		if !p.m.Step(&p.ops[len(p.ends)], &p.ev) {
			return
		}
		p.ends = append(p.ends, p.m.Eng.Now())
	}
}

func TestValidate(t *testing.T) {
	good := CascadeLike()
	if err := good.Validate(); err != nil {
		t.Fatalf("CascadeLike invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.CoresPerNode = -1 },
		func(c *Config) { c.CoreGFlops = 0 },
		func(c *Config) { c.MemBWBytes = 0 },
		func(c *Config) { c.NICBWBytes = -1 },
		func(c *Config) { c.GAServiceBW = 0 },
		func(c *Config) { c.GAStrideLatency = -1 },
		func(c *Config) { c.GemmContention = -1 },
		func(c *Config) { c.GemmContention = 1.5 },
		func(c *Config) { c.CacheWarm = 0 },
		func(c *Config) { c.CacheWarm = 1.5 },
	}
	for i, mutate := range bad {
		c := CascadeLike()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestComputeTime(t *testing.T) {
	e := sim.NewEngine()
	c := cfgNoJitter()
	c.CoreGFlops = 10
	m := New(e, c)
	// 10 GFlop at 10 GFlop/s = 1 s.
	if got := m.ComputeTime(10e9); got != sim.Second {
		t.Errorf("ComputeTime = %v, want 1s", got)
	}
}

func TestComputeOccupiesWorker(t *testing.T) {
	e := sim.NewEngine()
	c := cfgNoJitter()
	c.CoreGFlops = 1
	c.MemBWBytes = 1e9
	m := New(e, c)
	p := play(m, ComputeOp(0, 1e9, 1e9, false)) // 1s compute + 1s memory
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if end := p.ends[0]; end < 1990*sim.Millisecond || end > 2010*sim.Millisecond {
		t.Errorf("end = %v, want ~2s", end)
	}
}

func TestMemOpWarmDiscount(t *testing.T) {
	e := sim.NewEngine()
	c := cfgNoJitter()
	c.MemBWBytes = 1e9
	c.CacheWarm = 0.25
	m := New(e, c)
	p := play(m, MemoryOp(0, 1e9, false), MemoryOp(0, 1e9, true))
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	cold, warm := p.ends[0], p.ends[1]-p.ends[0]
	if cold < 990*sim.Millisecond || cold > 1010*sim.Millisecond {
		t.Errorf("cold = %v, want ~1s", cold)
	}
	ratio := warm.Seconds() / cold.Seconds()
	if ratio < 0.24 || ratio > 0.26 {
		t.Errorf("warm/cold = %v, want ~0.25", ratio)
	}
}

func TestTransferRemoteUsesNICAndLatency(t *testing.T) {
	e := sim.NewEngine()
	c := cfgNoJitter()
	c.NICBWBytes = 1e9
	c.NetLatency = sim.Millisecond
	m := New(e, c)
	p := play(m, TransferOp(0, 1, 1e6)) // 1ms latency + 1ms wire
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if plain := p.ends[0]; plain < 1990*sim.Microsecond || plain > 2010*sim.Microsecond {
		t.Errorf("plain transfer = %v, want ~2ms", plain)
	}
}

func TestGARemoteAccess(t *testing.T) {
	e := sim.NewEngine()
	c := cfgNoJitter()
	c.NICBWBytes = 1e9
	c.NetLatency = 0
	c.GAStrideLatency = 10 * sim.Microsecond
	c.GAServiceBW = 0.5e9
	m := New(e, c)
	// 100 rows x 10us = 1ms stride overhead, 1MB/0.5GB/s = 2ms
	// service, 1MB/1GB/s = 1ms wire -> 4ms total.
	p := play(m, gaRemoteOp(0, 1, 1e6, 100))
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if el := p.ends[0]; el < 3990*sim.Microsecond || el > 4010*sim.Microsecond {
		t.Errorf("GA remote access = %v, want ~4ms", el)
	}
}

func TestGemmContention(t *testing.T) {
	e := sim.NewEngine()
	c := cfgNoJitter()
	c.CoreGFlops = 10
	c.GemmContention = 0.5
	c.GemmMemTraffic = 0
	m := New(e, c)
	var ps [4]*player
	for i := range ps {
		ps[i] = play(m, GemmOp(0, 10e9, 0)) // 1s at full core rate
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	// 4 concurrent GEMMs: each runs at 10/(1+0.5*3) = 4 GFlop/s while all
	// four are active -> all finish together at ~2.5s.
	for i, p := range ps {
		end := p.ends[0]
		if end < 2480*sim.Millisecond || end > 2520*sim.Millisecond {
			t.Errorf("gemm %d ended at %v, want ~2.5s", i, end)
		}
	}
}

func TestGemmSingleFlowAtCoreRate(t *testing.T) {
	e := sim.NewEngine()
	c := cfgNoJitter()
	c.CoreGFlops = 10
	c.GemmContention = 0.5
	c.GemmMemTraffic = 0
	m := New(e, c)
	p := play(m, GemmOp(0, 10e9, 0))
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	// One flow is capped at the core rate, not the node capacity.
	if end := p.ends[0]; end < 990*sim.Millisecond || end > 1010*sim.Millisecond {
		t.Errorf("single gemm = %v, want ~1s (core-rate bound)", end)
	}
}

func TestTransferLocalUsesMemBW(t *testing.T) {
	e := sim.NewEngine()
	c := cfgNoJitter()
	c.MemBWBytes = 1e9
	c.NetLatency = sim.Second // would be obvious if charged
	m := New(e, c)
	p := play(m, TransferOp(2, 2, 1e6))
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if el := p.ends[0]; el < 990*sim.Microsecond || el > 1010*sim.Microsecond {
		t.Errorf("local transfer = %v, want ~1ms (no net latency)", el)
	}
}

func TestNICContention(t *testing.T) {
	e := sim.NewEngine()
	c := cfgNoJitter()
	c.NICBWBytes = 1e9
	c.NetLatency = 0
	m := New(e, c)
	var latest sim.Time
	const n = 4
	var ps [n]*player
	for i := range ps {
		ps[i] = play(m, TransferOp(0, 1, 1e6))
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		latest = max(latest, p.ends[0])
	}
	want := sim.Duration(n * 1e6 / 1e9)
	if latest < want-10*sim.Microsecond || latest > want+10*sim.Microsecond {
		t.Errorf("contended makespan = %v, want ~%v", latest, want)
	}
}

func TestZeroByteOpsFree(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, cfgNoJitter())
	var ev sim.Event
	for _, op := range []Op{MemoryOp(0, 0, false), TransferOp(0, 1, 0), ComputeOp(0, 0, 0, false)} {
		if !m.Step(&op, &ev) {
			t.Errorf("zero-cost op %+v has to wait", op)
		}
	}
	if end, err := e.Run(0); end != 0 || err != nil {
		t.Errorf("zero-cost ops advanced time to %v (%v)", end, err)
	}
}

func TestDeterminismWithJitter(t *testing.T) {
	run := func() sim.Time {
		e := sim.NewEngine()
		c := small()
		c.JitterFrac = 0.1
		m := New(e, c)
		for i := 0; i < 8; i++ {
			node := i % c.Nodes
			play(m, ComputeOp(node, 1e8, 1e6, false), TransferOp(node, (node+1)%c.Nodes, 1e5))
		}
		end, err := e.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic end time: %v vs %v", first, got)
		}
	}
}

func TestGALocalAccess(t *testing.T) {
	e := sim.NewEngine()
	c := cfgNoJitter()
	c.GAServiceBW = 0.5e9
	m := New(e, c)
	p := play(m, gaLocalOp(0, 1e6), gaLocalOp(0, 0)) // 1MB at 0.5 GB/s = 2ms, then free
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if el := p.ends[1]; el < 1990*sim.Microsecond || el > 2010*sim.Microsecond {
		t.Errorf("local GA access = %v, want ~2ms", el)
	}
}

func TestGemmZeroFlopsFree(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, cfgNoJitter())
	p := play(m, GemmOp(0, 0, 0))
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.ends[0] != 0 {
		t.Errorf("zero gemm advanced time to %v", p.ends[0])
	}
}
