package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parsec/internal/netrun"
	"parsec/internal/obsv"
	"parsec/internal/ptg"
	"parsec/internal/trace"
)

// TestMain completes real-dist's self-exec loop: a test binary
// relaunched by netrun.StartProcesses runs one worker rank and exits
// instead of the tests.
func TestMain(m *testing.M) {
	netrun.MaybeWorkerMain()
	os.Exit(m.Run())
}

// runCLI runs one command line through run and returns what it printed.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

// TestSubcommandsQuick runs every subcommand at its smoke size and
// sanity-checks the output. -quick must also write no artifact.
func TestSubcommandsQuick(t *testing.T) {
	// testing.Benchmark inside `kernels` honors -test.benchtime; one
	// iteration per shape is enough to exercise the sweep.
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want []string // substrings of the output
	}{
		{[]string{"fig9", "-quick", "-variants", "original,v1,seg=1,tree=3;v5", "-cores", "1,7"},
			[]string{"Fig 9: CCSD icsd_t2_7() on 8 nodes using benzene/6-31G", "7 c/n", "\noriginal ", "\nv1 ", "\nseg=1,tree=3 ", "\nv5 ", "best PaRSEC variant"}},
		{[]string{"sweep", "-quick", "-name", "nic", "-variants", "original,v5"},
			[]string{`ablation sweep "nic" on benzene/6-31G, 8 nodes x 7 cores/node`, "original", "v5", "0.3GB/s", "5.0GB/s"}},
		{[]string{"sched", "-quick", "-variants", "original,v5", "-workers", "1,2"},
			[]string{"scheduler sweep on water/6-31G", "v5/shared", "v5/pinned", "v5/pinned-steal"}},
		{[]string{"kernels", "-quick"},
			[]string{"dense-kernel sweep", "gemm", "sort4", "sort4add", "water"}},
		{[]string{"profile", "-quick", "-variants", "original,v4", "-real", "water", "-workers", "2"},
			[]string{"original sim benzene/6-31G 8n x 7r", "v4 sim benzene/6-31G 8n x 7c", "v4 real water/6-31G, 2 workers", "critical path"}},
		{[]string{"faults", "-quick"},
			[]string{"fault-injection sweep on uracil/6-31G, 8 nodes x 7 cores/node", "straggler-pinned", "latency-spikes", "criterion [PASS]: perturbed real-runtime energies", "relative bound 1e-12"}},
		{[]string{"real-dist", "-quick", "-ranks", "2", "-variants", "original,v5"},
			[]string{"water/6-31G", "across 2 worker processes", "\nv5 ", "ok: every distributed energy matches its single-process run to a relative 1e-12"}},
		{[]string{"tune", "-quick", "-budget", "24"},
			[]string{"recipe autotuning on uracil/6-31G, 8 nodes x 7 cores/node", "hand-derived variants", "criterion [PASS]"}},
		{[]string{"trace", "-quick", "-variants", "original", "-nodes", "2", "-width", "60", "-from", "0.1", "-to", "0.2"},
			[]string{"zoomed to [0.100s, 0.200s]", "trace of original on benzene/6-31G, 2 nodes x 7 cores/node", "--- node 1 ", "communication/computation overlap", "startup idle (Fig 11 bubble)"}},
	} {
		tc := tc
		t.Run(tc.args[0], func(t *testing.T) {
			out, err := runCLI(t, tc.args...)
			if err != nil {
				t.Fatalf("ccsim %s: %v\n%s", strings.Join(tc.args, " "), err, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("ccsim %s: output lacks %q:\n%s", strings.Join(tc.args, " "), want, out)
				}
			}
			if strings.Contains(out, "wrote ") {
				t.Errorf("ccsim %s wrote an artifact under -quick:\n%s", strings.Join(tc.args, " "), out)
			}
		})
	}
	if len(subcommands) != 9 {
		t.Errorf("%d subcommands, the table above covers 9", len(subcommands))
	}
}

// TestQuickOnlyChangesDefaults: -quick used to set the preset and node
// count unconditionally, so `-quick -preset water -nodes 4` ran benzene
// on 8 nodes. An option given explicitly wins.
func TestQuickOnlyChangesDefaults(t *testing.T) {
	out, err := runCLI(t, "fig9", "-quick", "-preset", "water", "-nodes", "4", "-variants", "v5", "-cores", "2")
	if err != nil {
		t.Fatal(err)
	}
	if want := "Fig 9: CCSD icsd_t2_7() on 4 nodes using water/6-31G"; !strings.Contains(out, want) {
		t.Errorf("explicit -preset/-nodes lost under -quick; want %q in:\n%s", want, out)
	}
	// ... in either order, and for the output path too.
	path := filepath.Join(t.TempDir(), "sub", "fig9.csv")
	out, err = runCLI(t, "fig9", "-preset", "water", "-out", path, "-variants", "v5", "-cores", "2", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "on 8 nodes using water/6-31G") || !strings.Contains(out, "wrote "+path) {
		t.Errorf("want water on the quick default of 8 nodes, written to %s:\n%s", path, out)
	}
	if csv, err := os.ReadFile(path); err != nil || !strings.Contains(string(csv), "v5") {
		t.Errorf("explicit -out under -quick: %v, content %q", err, csv)
	}
}

func TestUsageAndFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string // substring of the error
		wantOut string // substring of the output
	}{
		{nil, "missing subcommand", "usage: ccsim <subcommand> [flags]"},
		{[]string{"bogus"}, `unknown subcommand "bogus"`, "real-dist"},
		{[]string{"-quick"}, `unknown subcommand "-quick"`, "usage: ccsim"},
		{[]string{"sweep", "-quick", "-name", "bogus"}, "accepted: gaservice, nic, contention, stride, segheight", ""},
		{[]string{"sweep", "-quick"}, "accepted: gaservice, nic, contention, stride, segheight", ""},
		{[]string{"fig9", "-preset", "nope"}, "bad -preset: molecule: unknown preset \"nope\" (want water, benzene, uracil, porphin, or betacarotene)", ""},
		{[]string{"fig9", "-quick", "-variants", "v9"}, `bad -variants entry "v9"`, ""},
		// A write span over fissioned writes is refused up front, as the
		// service and netrun refuse it, not run at span 1.
		{[]string{"fig9", "-quick", "-variants", "v5,seg=1,fission=writes,span=2"}, "write span > 1 requires fused writes", ""},
		{[]string{"real-dist", "-quick", "-variants", "seg=full,span=2"}, "write span > 1 requires fused writes", ""},
		{[]string{"fig9", "-quick", "-cores", "x"}, "bad -cores list", ""},
		{[]string{"fig9", "-quick", "-nodes", "-3"}, "bad -nodes -3", ""},
		{[]string{"faults", "-quick", "-cores", "1,3"}, "want one positive integer", ""},
		{[]string{"fig9", "-csv", "x.csv"}, "flag provided but not defined: -csv", ""},
		{[]string{"fig9", "-quick", "stray"}, `unexpected argument "stray"`, ""},
		{[]string{"profile", "-quick", "-real", "nope"}, `bad -real: molecule: unknown preset "nope"`, ""},
		{[]string{"tune", "-quick", "-start", "v9"}, "bad -start", ""},
		{[]string{"trace", "-quick", "-variants", "v2,v4"}, "trace renders one series", ""},
		{[]string{"trace", "-quick", "-pprof", "localhost:6060"}, "flag provided but not defined: -pprof", ""},
		{[]string{"kernels", "-quick", "-baseline", "/does/not/exist.json"}, "exist.json", ""},
	} {
		out, err := runCLI(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ccsim %s: error %v, want one containing %q", strings.Join(tc.args, " "), err, tc.wantErr)
		}
		if !strings.Contains(out, tc.wantOut) {
			t.Errorf("ccsim %s: output lacks %q:\n%s", strings.Join(tc.args, " "), tc.wantOut, out)
		}
	}
	if out, err := runCLI(t, "help"); err != nil || !strings.Contains(out, "usage: ccsim") {
		t.Errorf("ccsim help: %v\n%s", err, out)
	}
	if out, err := runCLI(t, "tune", "-h"); err != nil || !strings.Contains(out, "-budget") {
		t.Errorf("ccsim tune -h: %v\n%s", err, out)
	}
}

// TestWriteArtifact: a failed render must leave the committed file as
// it was, and a successful one replaces it whole, creating directories.
func TestWriteArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a", "b", "artifact.json")
	write := func(render func(io.Writer) error) error { return writeArtifact(io.Discard, path, render) }
	if err := write(func(w io.Writer) error { _, err := io.WriteString(w, "first\n"); return err }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("mid-render failure")
	err := write(func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("render error not reported: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "first\n" {
		t.Errorf("failed render changed the file to %q", got)
	}
	if err := write(func(w io.Writer) error { _, err := io.WriteString(w, "second\n"); return err }); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second\n" {
		t.Errorf("file is %q after a successful rewrite", got)
	}
	if err := writeArtifact(io.Discard, "", func(io.Writer) error { return boom }); err != nil {
		t.Errorf("empty path must write nothing: %v", err)
	}
}

// TestTraceSummary pins the summary block of ccsim trace, rendered from
// the run's profile: span, thread rows, the idle fraction 1 -
// busy/(rows*span), the mean startup idle as a fraction of the span, and
// one line per class, on hand-checked spans and on none.
func TestTraceSummary(t *testing.T) {
	const ms = 1_000_000
	g := ptg.NewGraph("summary")
	for _, c := range []struct {
		class string
		n     int
	}{{"READA", 1}, {"GEMM", 2}, {"WRITE", 1}} {
		n := c.n
		g.Class(c.class).Domain = func(emit func(ptg.Args)) {
			for k := 0; k < n; k++ {
				emit(ptg.A1(k))
			}
		}
	}
	sk, err := ptg.NewSkeleton(g)
	if err != nil {
		t.Fatal(err)
	}
	// Seq 0 is the READA, 1 and 2 the GEMMs, 3 the WRITE.
	spans := [][]trace.Span{
		{{Seq: 0, Worker: 0, Start: 0, End: 100 * ms}, {Seq: 1, Worker: 0, Start: 100 * ms, End: 400 * ms}, {Seq: 2, Worker: 1, Start: 200 * ms, End: 500 * ms}},
		{{Seq: 3, Worker: 0, Start: 450 * ms, End: 500 * ms}},
	}
	for _, tc := range []struct {
		spans [][]trace.Span
		busy  int64
		want  string
	}{
		// Busy 100+300+300+50 ms over 3 rows x 500 ms: idle 50%. The rows
		// start at 0, 200 and 450 ms: mean startup 216.7 ms, 43.3%.
		{spans, 750 * ms, `
span=0.500s threads=3 idle=50.0% startup-idle=43.3%
  GEMM       count=2      busy=0.600s
  READA      count=1      busy=0.100s
  WRITE      count=1      busy=0.050s
`},
		{nil, 0, `
span=0.000s threads=0 idle=0.0% startup-idle=0.0%
`},
	} {
		var buf bytes.Buffer
		if busy := writeTraceSummary(&buf, obsv.FromSpans("t", tc.spans, sk)); busy != tc.busy {
			t.Errorf("busy = %d, want %d", busy, tc.busy)
		}
		if got := buf.String(); got != tc.want {
			t.Errorf("summary:\n%s\nwant:\n%s", got, tc.want)
		}
	}
}

// TestArtifactsRegenerateByteIdentical re-runs the paper-scale
// experiments behind the committed artifacts and compares bytes: the
// simulator, the fault injector and the tuner are deterministic, so any
// difference is a behaviour change. ~10 s + ~6 s + ~16 s + ~2 s on two
// cores, hence not under -short or the race detector. The profile run
// ends with one real (wall-clock) run, which is not compared: only the
// three simulated profiles ahead of it are.
func TestArtifactsRegenerateByteIdentical(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-scale runs: skipped under -short and -race")
	}
	docs := filepath.Join("..", "..", "docs")
	for _, tc := range []struct {
		cmd, file string
		args      []string
	}{
		{cmd: "fig9", file: "fig9.csv"},
		{cmd: "faults", file: "faults.json"},
		{cmd: "tune", file: "tune.json"},
		{cmd: "profile", file: "profile.json", args: []string{"-preset", "betacarotene", "-nodes", "32"}},
	} {
		tc := tc
		t.Run(tc.cmd, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), tc.file)
			out, err := runCLI(t, append([]string{tc.cmd, "-out", path}, tc.args...)...)
			if err != nil {
				t.Fatalf("ccsim %s: %v\n%s", tc.cmd, err, out)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(docs, tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if tc.cmd == "profile" {
				got, want = simulatedProfiles(t, got), simulatedProfiles(t, want)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("ccsim %s -out no longer regenerates docs/%s byte-identically:\n got %d bytes\nwant %d bytes", tc.cmd, tc.file, len(got), len(want))
			}
			switch tc.cmd {
			case "fig9":
				// docs/fig9.txt is this run's standard output.
				txt, err := os.ReadFile(filepath.Join(docs, "fig9.txt"))
				if err != nil {
					t.Fatal(err)
				}
				if want := strings.Replace(string(txt), "docs/fig9.csv", path, 1); out != want {
					t.Errorf("ccsim fig9 output differs from docs/fig9.txt:\n%s", out)
				}
			case "profile":
				// docs/profile.txt is this run's standard output; the
				// simulated reports end where the real run's begins.
				txt, err := os.ReadFile(filepath.Join(docs, "profile.txt"))
				if err != nil {
					t.Fatal(err)
				}
				const realReport = "== v4 real "
				cut := func(s string) string { head, _, _ := strings.Cut(s, realReport); return head }
				if got, want := cut(out), cut(string(txt)); got != want || !strings.Contains(out, realReport) {
					t.Errorf("ccsim profile's simulated reports differ from docs/profile.txt:\n%s", got)
				}
			}
		})
	}
}

// TestTraceArtifactsRegenerate pins the committed traces (Figs 10-13):
// ccsim trace regenerates docs/trace_*.svg and the Chrome exports
// docs/trace_{v4,original}.json byte for byte on benzene over 8 nodes,
// and prints docs/trace_*.txt (beta-carotene over 32 nodes, the
// defaults) exactly, less the trailing lines that name what a run wrote.
func TestTraceArtifactsRegenerate(t *testing.T) {
	docs := filepath.Join("..", "..", "docs")
	read := func(t *testing.T, path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, v := range []string{"v4", "v2", "original"} {
		v := v
		t.Run(v+"/render", func(t *testing.T) {
			t.Parallel()
			args := []string{"trace", "-preset", "benzene", "-nodes", "8", "-variants", v}
			written := map[string]string{} // committed file -> this run's
			for _, r := range []struct{ flag, file string }{{"-svg", ".svg"}, {"-chrome", ".json"}} {
				if v == "v2" && r.flag == "-chrome" {
					continue // no committed Chrome export of v2
				}
				f := "trace_" + v + r.file
				written[f] = filepath.Join(t.TempDir(), f)
				args = append(args, r.flag, written[f])
			}
			if out, err := runCLI(t, args...); err != nil {
				t.Fatalf("ccsim %s: %v\n%s", strings.Join(args, " "), err, out)
			}
			for f, path := range written {
				if got, want := read(t, path), read(t, filepath.Join(docs, f)); !bytes.Equal(got, want) {
					t.Errorf("ccsim %s no longer regenerates docs/%s byte-identically: got %d bytes, want %d", strings.Join(args, " "), f, len(got), len(want))
				}
			}
		})
		t.Run(v+"/text", func(t *testing.T) {
			t.Parallel()
			args := []string{"trace", "-width", "140", "-variants", v}
			out, err := runCLI(t, args...)
			if err != nil {
				t.Fatalf("ccsim %s: %v\n%s", strings.Join(args, " "), err, out)
			}
			lines := strings.SplitAfter(string(read(t, filepath.Join(docs, "trace_"+v+".txt"))), "\n")
			for n := len(lines); n > 0 && (lines[n-1] == "" || strings.HasPrefix(lines[n-1], "wrote ")); n-- {
				lines = lines[:n-1]
			}
			if want := strings.Join(lines, ""); out != want {
				t.Errorf("ccsim %s output differs from docs/trace_%s.txt:\n%s", strings.Join(args, " "), v, out)
			}
		})
	}
}

// simulatedProfiles returns the first three entries of a profile JSON
// artifact — the simulated runs — with their text kept as written
// (RawMessage: whitespace is compacted, numbers and key order are not
// reinterpreted).
func simulatedProfiles(t *testing.T, doc []byte) []byte {
	t.Helper()
	var entries []json.RawMessage
	if err := json.Unmarshal(doc, &entries); err != nil || len(entries) < 3 {
		t.Fatalf("profile artifact: %d entries, %v", len(entries), err)
	}
	sims, err := json.Marshal(entries[:3])
	if err != nil {
		t.Fatal(err)
	}
	return sims
}
