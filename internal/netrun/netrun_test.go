package netrun

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/molecule"
	"parsec/internal/obsv"
	"parsec/internal/ptg"
	"parsec/internal/sched"
	"parsec/internal/tce"
	"parsec/internal/trace"
)

// energyTol is ccsd.EnergyTol under the name the pinned chaos test
// (TestProcessChaosKillAndSever, kept as written) spells its
// post-recovery check with; everything else goes through checkEnergy.
const energyTol = ccsd.EnergyTol

// waterRef computes the single-process reference energy for a variant.
func waterRef(t *testing.T, variant string) float64 {
	t.Helper()
	w := tce.Inspect(tce.T2_7(molecule.Water631G()), nil)
	spec, err := ccsd.VariantByName(variant)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ccsd.CompileWorkload(w, spec, ccsd.Options{Nodes: 1}).Execute(ccsd.ExecConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res.Energy
}

func jobFor(variant string) JobSpec {
	return JobSpec{Preset: "water", Variant: variant}
}

func cfgFor(t *testing.T, spec JobSpec, ranks, workers int) Config {
	t.Helper()
	pol, err := spec.Policy()
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Ranks:    ranks,
		Workers:  workers,
		Policy:   pol,
		Queues:   sched.SharedQueue,
		Deadline: 90 * time.Second,
	}
}

func checkEnergy(t *testing.T, res *Result, want float64) {
	t.Helper()
	if !res.HasEnergy {
		t.Fatal("result has no energy")
	}
	if d := ccsd.EnergyRelDiff(res.Energy, want); d > ccsd.EnergyTol {
		t.Fatalf("energy %.15f, want %.15f (relative diff %.3e > %g)", res.Energy, want, d, ccsd.EnergyTol)
	}
}

// checkTileBooks audits a run's tile ownership counters: tiles went out
// by reference, and of the pooled tiles the ranks decoded none is
// accounted for twice. With settled set — two ranks, nobody dead — the
// books must balance exactly: every tile was returned at its consumer's
// completion or on arrival, passed on by its consumer, or adopted into
// an input replica, and a healthy or severed link (whose resent frames
// the channel dedups) hands the engine no duplicate. A link that was
// never severed also delivered every input block in full before
// any tag-only activation of it, so no rank refilled a replica block.
func checkTileBooks(t *testing.T, res *Result, settled bool) {
	t.Helper()
	var c CommSnapshot
	for _, rep := range res.PerRank {
		c.TilesBorrowed += rep.Comm.TilesBorrowed
		c.TilesReceived += rep.Comm.TilesReceived
		c.TilesReturned += rep.Comm.TilesReturned
		c.TilesDuplicate += rep.Comm.TilesDuplicate
		c.TilesPassedOn += rep.Comm.TilesPassedOn
		c.TilesAdopted += rep.Comm.TilesAdopted
		c.ReplicaRefills += rep.Comm.ReplicaRefills
		c.Severs += rep.Comm.Severs
	}
	if hostLittleEndian && c.TilesBorrowed == 0 {
		t.Error("no tile went out by reference")
	}
	accounted := c.TilesReturned + c.TilesDuplicate + c.TilesPassedOn + c.TilesAdopted
	if c.TilesReturned == 0 || c.TilesAdopted == 0 || accounted > c.TilesReceived ||
		settled && (accounted != c.TilesReceived || c.TilesDuplicate != 0) {
		t.Errorf("tiles: %d borrowed; %d received = %d returned + %d duplicate + %d passed on + %d adopted + %d unaccounted",
			c.TilesBorrowed, c.TilesReceived, c.TilesReturned, c.TilesDuplicate, c.TilesPassedOn, c.TilesAdopted, c.TilesReceived-accounted)
	}
	if settled && c.Severs == 0 && c.ReplicaRefills != 0 {
		t.Errorf("%d tag-only activations found their input block absent on a link that lost nothing", c.ReplicaRefills)
	}
}

// TestRunMatchesSingleProcess runs every CCSD variant across two ranks
// over real sockets and demands the single-process energy to 1e-12:
// distribution must change where work runs, never what it computes. On
// the way every tile that crossed the wire must be accounted for.
func TestRunMatchesSingleProcess(t *testing.T) {
	for _, vs := range ccsd.Variants() {
		vs := vs
		t.Run(vs.Name, func(t *testing.T) {
			t.Parallel()
			want := waterRef(t, vs.Name)
			spec := jobFor(vs.Name)
			res, err := Run(cfgFor(t, spec, 2, 2), spec)
			if err != nil {
				t.Fatal(err)
			}
			checkEnergy(t, res, want)
			checkTileBooks(t, res, true)
			if res.Takeovers != 0 {
				t.Fatalf("unexpected takeovers: %d", res.Takeovers)
			}
		})
	}
}

// TestRunThreeRanksPerWorkerSteal runs three ranks with the stealing
// queue mode inside each rank.
func TestRunThreeRanksPerWorkerSteal(t *testing.T) {
	want := waterRef(t, "v5")
	spec := jobFor("v5")
	cfg := cfgFor(t, spec, 3, 2)
	cfg.Queues = sched.PerWorkerSteal
	res, err := Run(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	checkEnergy(t, res, want)
	if res.Tasks == 0 || res.Ranks != 3 {
		t.Fatalf("result %d tasks across %d ranks", res.Tasks, res.Ranks)
	}
}

// TestRunBenzeneShapedFourWorkersSteal is the widest rank the suite
// runs: the benchmark's benzene-shaped v5 job on 2 ranks of 4 workers
// with stealing queues, so the executor's shards, parking, intra-rank
// steals and lending all run under real wire traffic. The energy must
// match the serial reference to a relative 1e-12 (|E| is in the
// hundreds here, and v5 folds contributions in a different order than
// the serial loop).
func TestRunBenzeneShapedFourWorkersSteal(t *testing.T) {
	spec := JobSpec{Variant: "v5", Custom: &CustomSpec{
		Name: "benzene-shaped", NOccupied: 21, NVirtual: 45, TileTarget: 12, NIrreps: 2, Seed: 1,
	}}
	sys, err := molecule.Resolve(spec.Preset, spec.Custom)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgFor(t, spec, 2, 4)
	cfg.Queues = sched.PerWorkerSteal
	res, err := Run(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	checkEnergy(t, res, ccsd.ReferenceEnergy(tce.Inspect(tce.T2_7(sys), nil)))
	for _, rep := range res.PerRank {
		if rep.Tasks == 0 {
			t.Errorf("rank %d executed nothing", rep.Rank)
		}
	}
}

// TestRunWithSeveredLink closes one connection of a two-rank run and
// requires the sender to reconnect, retransmit its window, and finish
// with the energy bitwise. Between the ranks the cut comes early, and
// again in the middle of rank 0's burst of some 200 frames, most of them
// tiles on loan to the channel. A rank's link to the coordinator carries
// its accumulations and done batches, so there a resent accumulation can
// land after a done batch sent behind it, and the job must still wait
// for its counted output. Every cut is reached: on this job rank 0 sends
// the coordinator 60 accumulations and rank 1 18, besides its register
// frame, done batches and report. Rank 0's last three cuts fall in its
// final stretch, where a late accumulation is most likely.
func TestRunWithSeveredLink(t *testing.T) {
	want := waterRef(t, "v2")
	spec := jobFor("v2")
	severs := []SeverSpec{{From: 0, To: 1, AfterFrames: 5}, {From: 0, To: 1, AfterFrames: 80}}
	for from, cuts := range [][]int{{1, 5, 20, 50, 55, 60}, {1, 5, 20}} {
		for _, after := range cuts {
			severs = append(severs, SeverSpec{From: from, To: coordRank, AfterFrames: after})
		}
	}
	for _, sv := range severs {
		t.Run(fmt.Sprintf("%s_to_%s_after_%d", rankName(sv.From), rankName(sv.To), sv.AfterFrames), func(t *testing.T) {
			cfg := cfgFor(t, spec, 2, 2)
			cfg.Sever = &sv
			res, err := Run(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !res.HasEnergy || res.Energy != want {
				t.Errorf("energy %.17g, want %.17g bitwise", res.Energy, want)
			}
			checkTileBooks(t, res, true)
			var severs, retries, reconnects int64
			for _, rep := range res.PerRank {
				severs += rep.Comm.Severs
				if rep.Rank == sv.From {
					retries, reconnects = rep.Comm.Retries, rep.Comm.Reconnects
				}
			}
			if severs == 0 || retries == 0 {
				t.Errorf("sever configured: %d severs, %d frames resent by %s", severs, retries, rankName(sv.From))
			}
			// The sender dials the coordinator and the other rank once
			// each; the third connection replaces the severed link.
			if reconnects < 3 {
				t.Errorf("%s connected %d times, want a reconnect", rankName(sv.From), reconnects)
			}
		})
	}
}

// TestRunGraphGeneric drives a plain dependency chain (no GA surface,
// no energy) through the socket runtime.
func TestRunGraphGeneric(t *testing.T) {
	const chains, length, ranks = 6, 4, 3
	const n = chains * length
	build := func(rank int) (*ptg.Graph, error) {
		g := ptg.NewGraph("conf-chains")
		step := g.Class("STEP")
		step.Domain = func(emit func(ptg.Args)) {
			for ci := 0; ci < chains; ci++ {
				for s := 0; s < length; s++ {
					emit(ptg.A2(ci, s))
				}
			}
		}
		step.Affinity = func(a ptg.Args) int { return a[0] % ranks }
		step.AddFlow("D", ptg.RW).
			InNew(func(a ptg.Args) bool { return a[1] == 0 }, func(a ptg.Args) int64 { return 8 }).
			In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
				return ptg.TaskRef{Class: "STEP", Args: ptg.A2(a[0], a[1]-1)}, "D"
			}).
			Out(func(a ptg.Args) bool { return a[1] < length-1 }, func(a ptg.Args) (ptg.TaskRef, string) {
				return ptg.TaskRef{Class: "STEP", Args: ptg.A2(a[0], a[1]+1)}, "D"
			})
		return g, nil
	}
	res, err := RunGraph(Config{Ranks: ranks, Workers: 1, Policy: sched.LIFOOrder,
		Deadline: 30 * time.Second}, build)
	if err != nil {
		t.Fatal(err)
	}
	if res.HasEnergy {
		t.Error("generic graph should have no energy")
	}
	if res.Tasks != n {
		t.Fatalf("completed %d tasks, want %d", res.Tasks, n)
	}
	var total int
	for _, rep := range res.PerRank {
		total += rep.Tasks
	}
	if total != n {
		t.Fatalf("per-rank task counts sum to %d, want %d", total, n)
	}
}

// resultTrace labels a result's spans the way a renderer would: one
// node per rank, named by the job graph's skeleton.
func resultTrace(r *Result) *trace.Trace {
	tr := trace.New()
	for _, rep := range r.PerRank {
		tr.AddSpans(rep.Rank, rep.Spans, r.skeleton())
	}
	return tr
}

// TestResultProfile checks the observability hookup end to end: the
// distributed result must feed the same profile pipeline as the
// simulator and the shared-memory runtime.
func TestResultProfile(t *testing.T) {
	spec := jobFor("v2")
	res, err := Run(cfgFor(t, spec, 2, 2), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.AccOps == 0 {
		t.Error("no accumulate traffic recorded")
	}
	events := resultTrace(res).Events()
	if len(events) != res.Tasks {
		t.Fatalf("%d trace events aggregated for %d tasks", len(events), res.Tasks)
	}
	perClass := map[string]int64{}
	for _, ev := range events {
		// Labels come from the coordinator's own enumeration of the graph.
		if ev.Class == "" || !strings.HasPrefix(ev.Label, ev.Class+"(") {
			t.Fatalf("event labelled %q / %q", ev.Class, ev.Label)
		}
		perClass[ev.Class]++
	}
	p := res.Profile("netrun water v2")
	if p.Tasks != int64(len(events)) || len(p.Workers) == 0 || len(p.Classes) != len(perClass) {
		t.Errorf("profile covers %d tasks of %d classes on %d workers, trace has %d events of %d classes",
			p.Tasks, len(p.Classes), len(p.Workers), len(events), len(perClass))
	}
	for _, c := range p.Classes {
		if c.Count != perClass[c.Class] {
			t.Errorf("profile counts %d %s, the trace %d", c.Count, c.Class, perClass[c.Class])
		}
	}
	if p.Comm == nil || p.Comm.AccOps != res.Comm.AccOps || p.Recov == nil {
		t.Errorf("profile comm = %+v, recovery = %+v", p.Comm, p.Recov)
	}
	ranks := map[int]bool{}
	for _, w := range p.Workers {
		ranks[w.Node] = true
	}
	if len(ranks) != 2 {
		t.Errorf("profile has rows of %d ranks, want 2", len(ranks))
	}
	var buf bytes.Buffer
	if err := obsv.WriteProfile(&buf, p, 8); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== netrun water v2:", "task durations", "n1/t", "ACC", "fault recovery"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered profile missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRankReportRoundTrip ships a rank's report the way a worker does —
// encodeReport, the doneInfo frame body, counters as JSON and spans as
// the fixed-width section behind it — and folds it into a result: the
// JSON carries no per-task text at all, the spans come back bit for
// bit, and a trace of them labels them from the graph's own instance
// table on the reporting rank's node.
func TestRankReportRoundTrip(t *testing.T) {
	g := ptg.NewGraph("two-steps")
	step := g.Class("STEP")
	step.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)); emit(ptg.A1(1)) }
	step.Affinity = func(ptg.Args) int { return 0 }
	spans := []trace.Span{
		{Seq: 1, Worker: 0, Start: 5, End: 40},
		{Seq: 0, Worker: 1, Start: 40, End: 900},
		{Seq: 7, Worker: 1, Start: 900, End: 901}, // no such instance
	}
	want := []trace.Event{
		{Thread: 0, Seq: 1, Class: "STEP", Label: "STEP(1,0,0)", Start: 5, End: 40},
		{Thread: 1, Seq: 0, Class: "STEP", Label: "STEP(0,0,0)", Start: 40, End: 900},
		{Thread: 1, Seq: 7, Class: "task", Label: "#7", Start: 900, End: 901},
	}
	comm, err := json.Marshal(CommSnapshot{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rank := range []int{0, 3} {
		frm, err := encodeReport(RankReport{Rank: rank, Tasks: 3, Spans: spans})
		if err != nil {
			t.Fatal(err)
		}
		m, err := decodeDoneInfo(frm[frameHeaderLen:])
		if err != nil {
			t.Fatal(err)
		}
		wantJSON := fmt.Sprintf(`{"rank":%d,"tasks":3,"comm":%s}`, rank, comm)
		if string(m.JSON) != wantJSON {
			t.Errorf("rank %d report encodes as\n%s\nwant\n%s", rank, m.JSON, wantJSON)
		}
		if wantLen := frameHeaderLen + 4 + len(wantJSON) + 4 + 24*len(spans); len(frm) != wantLen {
			t.Errorf("rank %d report frame is %d bytes, want %d (24 per span)", rank, len(frm), wantLen)
		}
		if !reflect.DeepEqual(m.Spans, spans) {
			t.Errorf("rank %d spans came back as %+v", rank, m.Spans)
		}
		var rep RankReport
		if err := json.Unmarshal(m.JSON, &rep); err != nil {
			t.Fatal(err)
		}
		rep.Spans = m.Spans
		res := Result{graph: func() *ptg.Graph { return g }}
		res.aggregate(rep)
		got := resultTrace(&res).Events()
		if len(got) != len(want) {
			t.Fatalf("rank %d: %d events aggregated, want %d", rank, len(got), len(want))
		}
		for i, w := range want {
			w.Node = rank
			if got[i] != w {
				t.Errorf("rank %d event %d = %+v, want %+v", rank, i, got[i], w)
			}
		}
	}
}
