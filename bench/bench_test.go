package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1, 0, false}, {39, 0, false}, {40, 75, true}, {99, 75, true}, {100, 90, true},
		{199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true}, {100000, 99.99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %t; want %g, %t", c.n, got, ok, c.want, c.ok)
		}
	}
	// The rule itself: the chosen rung has ten samples beyond it, the
	// next one does not.
	for n := 1; n <= 3000; n++ {
		got, ok := tailPercentile(n)
		for i, p := range tailLadder {
			chosen := ok && p == got
			if chosen && beyond(n, p) < 10 {
				t.Fatalf("n=%d: p%g chosen with %d samples beyond", n, p, beyond(n, p))
			}
			if chosen && i+1 < len(tailLadder) && beyond(n, tailLadder[i+1]) >= 10 {
				t.Fatalf("n=%d: p%g chosen though p%g has %d beyond", n, p, tailLadder[i+1], beyond(n, tailLadder[i+1]))
			}
		}
		if !ok && beyond(n, tailLadder[0]) >= 10 {
			t.Fatalf("n=%d: no rung chosen though p%g has %d beyond", n, tailLadder[0], beyond(n, tailLadder[0]))
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6}
	if got := median(xs); got != 3.5 {
		t.Errorf("median = %g, want 3.5", got)
	}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 (nearest rank) = %g, want 3", got)
	}
	if got := percentile(xs, 100); got != 6 {
		t.Errorf("p100 = %g, want 6", got)
	}
}

// TestQuartileSpreadMatchesPython pins the acceptance statistic to
// values computed with Python's statistics.quantiles(xs, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{13, 10, 12, 11}, (12.75 - 10.25) / 11.5},
		{[]float64{2, 2, 2, 2, 2}, 0},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// TestQuietRoundsFloor: undisturbed rounds are kept by the walk
// threshold, but a region disturbed nearly throughout still yields its
// quietest quarter instead of nothing.
func TestQuietRoundsFloor(t *testing.T) {
	mk := func(walks ...float64) loopStats {
		ls := loopStats{minWalk: walks[0]}
		for i := 1; i < len(walks); i++ {
			ls.rounds = append(ls.rounds, round{walkBefore: walks[i-1], walkEnd: walks[i]})
			ls.minWalk = min(ls.minWalk, walks[i])
		}
		return ls
	}
	if got := len(mk(1, 1.2, 1.4, 3, 1.1, 1).quietRounds()); got != 3 {
		t.Errorf("mostly quiet region: kept %d of 5 rounds, want the 3 within %g of the fastest walk", got, quietFactor)
	}
	// One fast walk, everything else disturbed: no round has both walks
	// within the threshold.
	ls := mk(1, 3, 4, 2.5, 3.5, 5, 6, 2.2, 4.5)
	kept := ls.quietRounds()
	if len(kept) != 2 {
		t.Fatalf("disturbed region: kept %d of 8 rounds, want the quietest quarter", len(kept))
	}
	for _, r := range kept {
		if r.walk() > 3.5 {
			t.Errorf("disturbed region: kept a round with walk %g, not among the quietest", r.walk())
		}
	}
	if got := (loopStats{}).quietRounds(); len(got) != 0 {
		t.Errorf("empty region: kept %d rounds", len(got))
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "job", id: 1, parent: 0, start: ms(0), end: ms(100)},
		{name: "a", id: 2, parent: 1, start: ms(10), end: ms(30)},
		{name: "b", id: 3, parent: 1, start: ms(20), end: ms(50)},  // overlaps a: counted once
		{name: "c", id: 4, parent: 1, start: ms(90), end: ms(120)}, // clipped to the parent
		{name: "d", id: 5, parent: 3, start: ms(25), end: ms(45)},  // grandchild: b's, not job's
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(50), 2: ms(20), 3: ms(10), 4: ms(30), 5: ms(20)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	byName, jobs := aggregate(spans)
	if jobs != 1 || byName["job"].count != 1 || math.Abs(byName["job"].self-0.05) > 1e-12 || math.Abs(byName["b"].perJob(jobs)-0.03) > 1e-12 {
		t.Errorf("aggregate = %+v over %d jobs", byName, jobs)
	}
}

func TestChromeTraceFile(t *testing.T) {
	tr := newTracer()
	root := tr.begin("job", 7, 1, 0)
	child := tr.begin("layer.call", 7, 1, root)
	tr.end(child)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "layer.call" || ev.Ph != "X" || ev.Tid != 1 || ev.Args["job"] != 7 || ev.Args["parent"] != root {
		t.Errorf("child event = %+v", ev)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	setRE  = regexp.MustCompile(`\.set\("([^"]+)"`)
)

func testManifest(t *testing.T) (string, *manifest) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, man
}

// TestManifestMatchesHarness checks BENCHMARK.json against its contract
// and against the program: every name the harness can emit is declared,
// every declared name is emitted somewhere, and the workloads agree.
func TestManifestMatchesHarness(t *testing.T) {
	_, man := testManifest(t)
	if len(man.Paths) != 1 || man.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", man.Paths)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", man.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(man.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads declared, %d implemented", len(man.Workloads), len(workloadDefs))
	}
	for i, wl := range man.Workloads {
		name("workload", wl.Name)
		if wl.Name != workloadDefs[i].name {
			t.Errorf("workload %d: declared %q, implemented %q", i, wl.Name, workloadDefs[i].name)
		}
		if wl.Why == "" || len(wl.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", wl.Name, len(wl.Why))
		}
	}
	declared := map[string]bool{}
	hasSetup := false
	for _, d := range man.EndToEnd {
		name("end-to-end metric", d.Name)
		declared[d.Name] = true
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
	if len(man.PerLayer) < 1 || len(man.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(man.PerLayer))
	}
	for _, d := range man.PerLayer {
		name("per-layer metric", d.Name)
		declared[d.Name] = true
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDecl(nil), man.EndToEnd...), man.PerLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}

	// The names the program emits are the string literals it passes to
	// metricSet.set.
	emitted := map[string]bool{}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range setRE.FindAllSubmatch(src, -1) {
			emitted[string(m[1])] = true
		}
	}
	for n := range emitted {
		if !declared[n] {
			t.Errorf("the harness emits %q, which BENCHMARK.json does not declare", n)
		}
	}
	for n := range declared {
		if !emitted[n] {
			t.Errorf("BENCHMARK.json declares %q, which the harness never emits", n)
		}
	}
}

// TestQuickSmoke is `-quick` for every workload in both modes: two jobs
// each, with the correctness gate on. It checks the result a run hands
// the driver: correct, nothing failed, exactly the declared metrics, and
// no end-to-end metric at zero.
func TestQuickSmoke(t *testing.T) {
	root, man := testManifest(t)
	env := setupEnv{seed: 1, root: root, outDir: t.TempDir()}
	for _, def := range workloadDefs {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(def, options{seed: 1, trace: trace, quick: true}, man, env, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", def.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 2 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", def.name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			decls := declsFor(man, trace)
			if len(rep.Metrics) != len(decls) {
				t.Errorf("%s trace=%t: %d metrics reported, %d declared", def.name, trace, len(rep.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%t: metric %s reported as %+v (present %t), declared unit %s", def.name, trace, d.Name, m, ok, d.Unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g", def.name, d.Name, m.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(env.outDir, "trace-"+def.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", def.name, err)
				}
			}
		}
	}
}
