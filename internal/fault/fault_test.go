package fault

import (
	"testing"

	"parsec/internal/sim"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"straggler", Config{Stragglers: []Straggler{{Node: 3, Factor: 4}}}, true},
		{"bad factor", Config{Stragglers: []Straggler{{Node: 3, Factor: 0.5}}}, false},
		{"bad node", Config{Stragglers: []Straggler{{Node: -1, Factor: 2}}}, false},
		{"bad prob", Config{SpikeProb: 1.5}, false},
		{"neg prob", Config{NxtValProb: -0.1}, false},
		{"bad acc prob", Config{AccProb: 2}, false},
		{"neg delay", Config{SpikeLatency: -1}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestDeterminism: the same config yields the identical spike
// sequence, and the streams are independent — GA draws do not perturb
// transfer draws.
func TestDeterminism(t *testing.T) {
	cfg := Config{
		Seed:      42,
		SpikeProb: 0.3, SpikeLatency: sim.Duration(5e-6),
		NxtValProb: 0.5, NxtValDelay: sim.Duration(1e-6),
	}
	a, b := New(cfg), New(cfg)
	var seqA, seqB []sim.Time
	for i := 0; i < 200; i++ {
		seqA = append(seqA, a.Transfer(0, 1))
		// Interleave GA draws on b only: must not shift b's transfers.
		b.NxtValHiccup()
		seqB = append(seqB, b.Transfer(0, 1))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("spike %d diverged: %v vs %v", i, seqA[i], seqB[i])
		}
	}
	st := a.Stats()
	if st.Spikes == 0 || st.Spikes == 200 {
		t.Fatalf("want some but not all of 200 transfers spiked: %+v", st)
	}
	var sum sim.Time
	for _, d := range seqA {
		sum += d
	}
	if sum != st.SpikeTime {
		t.Fatalf("spikes returned %v, ledger SpikeTime %v", sum, st.SpikeTime)
	}
}

func TestLocalTransfersNeverFault(t *testing.T) {
	inj := New(Config{Seed: 7, SpikeProb: 1, SpikeLatency: 10})
	for i := 0; i < 10; i++ {
		if d := inj.Transfer(2, 2); d != 0 {
			t.Fatalf("local transfer spiked by %v", d)
		}
	}
	if st := inj.Stats(); st.Spikes != 0 || st.SpikeTime != 0 {
		t.Fatalf("ledger recorded local spikes: %+v", st)
	}
}

func TestScaleComputeLedger(t *testing.T) {
	inj := New(Config{Stragglers: []Straggler{{Node: 1, Factor: 4}}})
	d := inj.ScaleCompute(1, 1000)
	if d != 4000 {
		t.Fatalf("ScaleCompute = %d, want 4000", d)
	}
	if d := inj.ScaleCompute(0, 1000); d != 1000 {
		t.Fatalf("healthy node scaled: %d", d)
	}
	if got := inj.Stats().StragglerExcess[1]; got != 3000 {
		t.Fatalf("excess ledger = %d, want 3000", got)
	}
	if amt := inj.ScaleAmount(1, 10); amt != 40 {
		t.Fatalf("ScaleAmount = %g", amt)
	}
}

// TestNilInjector: a nil *Injector is a valid no-op at every call site,
// so the machine model can thread it unconditionally.
func TestNilInjector(t *testing.T) {
	var inj *Injector
	if d := inj.ScaleCompute(0, 100); d != 100 {
		t.Fatalf("nil ScaleCompute = %d", d)
	}
	if d := inj.Transfer(0, 1); d != 0 {
		t.Fatalf("nil Transfer = %v", d)
	}
	if inj.NxtValHiccup() != 0 || inj.AccHiccup() != 0 {
		t.Fatal("nil hiccup nonzero")
	}
	inj.NoteExcess(0, 5)
	_ = inj.Stats()
}

func TestHiccupLedger(t *testing.T) {
	inj := New(Config{Seed: 3, NxtValProb: 1, NxtValDelay: 10, AccProb: 1, AccDelay: 20})
	for i := 0; i < 5; i++ {
		if d := inj.NxtValHiccup(); d != 10 {
			t.Fatalf("NxtValHiccup = %d", d)
		}
		if d := inj.AccHiccup(); d != 20 {
			t.Fatalf("AccHiccup = %d", d)
		}
	}
	st := inj.Stats()
	if st.NxtValHiccups != 5 || st.NxtValTime != 50 || st.AccHiccups != 5 || st.AccTime != 100 {
		t.Fatalf("ledger = %+v", st)
	}
	if st.TotalStragglerExcess() != 0 {
		t.Fatalf("unexpected straggler excess")
	}
}
