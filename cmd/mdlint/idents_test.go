package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree writes files (path → content) under a new temporary root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, content := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// spans runs the span check alone on the tree at root, returning its
// count and report.
func spans(t *testing.T, root string) (int, string) {
	t.Helper()
	m, err := loadModule(root, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	n := checkSpans(root, m, &out)
	return n, out.String()
}

// fixture is a module with one library package and one command whose
// docs name each kind of declaration and path the check resolves.
func fixture() map[string]string {
	return map[string]string{
		"go.mod": "module fix\n\ngo 1.22\n",
		"internal/alpha/alpha.go": `package alpha

type Engine struct {
	Workers int
	Inner
}

type Inner struct{ Depth int }

func (e *Engine) Run() {}

func Start() {}

func fillTile() {}

const Limit = 3
`,
		"internal/alpha/alpha_test.go": "package alpha\n\nimport \"testing\"\n\nfunc TestStart(t *testing.T) {}\n",
		"cmd/tool/main.go":             "package main\n\nfunc main() {}\n",
		"sub/go.mod":                   "module sub\n",
		"sub/beta/beta.go":             "package beta\n\nfunc Only() {}\n",
		"DESIGN.md": "`alpha.Start`, `alpha.Limit`, `alpha.Engine.Run`, `alpha.(*Engine).Run`,\n" +
			"`alpha.Engine.Workers`, `alpha.Inner.Depth`, `alpha.Run`\n" +
			"(a method by its package), `alpha.TestStart(t)`, `alpha.go`, `alpha/x.go`,\n" +
			"`alpha.parks` (a metric key), `beta.Gone` (no package of this module).\n" +
			"```\nalpha.Stop() in a fence is code, not prose: `alpha.Stop`, `cmd/gone`\n```\n" +
			"`internal/alpha`, `internal/alpha/alpha.go:3`, `cmd/tool -v`,\n" +
			"`cmd/*/main.go` (a glob), `internal/`, `sub/gone` (not a top directory).\n" +
			"Unqualified: `Start()`, `(*Engine).Run`, `Engine.Workers`, `fillTile`,\n" +
			"`Run`, `TestStart`, `Inner.Depth(x)`.\n" +
			"Not identifiers: `VPERMPD`, `PARSEC_KERNEL_TIER`, `READA(l1, l2, 0)`, `water`,\n" +
			"`dgemm('T','N')`, `ctx.In`, `sync.Pool`, `in.Ref.Class`, `Start --quick`.\n",
		"EXPERIMENTS.md": "History names what is gone: `alpha.Stop`, `Stop`, `cmd/gone`.\n",
	}
}

// TestLiveDocsResolve: every kind of name and path the fixture's docs
// use resolves, and a fenced block or a history file naming a deleted
// identifier or directory does not count.
func TestLiveDocsResolve(t *testing.T) {
	if n, out := spans(t, writeTree(t, fixture())); n != 0 {
		t.Fatalf("%d stale spans in a tree that has them all:\n%s", n, out)
	}
}

// TestDeletedIdentifierFails deletes declarations that live docs still
// name — a function, a method, a field, an unexported helper — and the
// check must name each one, qualified or not, with its file and line.
func TestDeletedIdentifierFails(t *testing.T) {
	files := fixture()
	files["internal/alpha/alpha.go"] = strings.NewReplacer(
		"func Start() {}", "",
		"func (e *Engine) Run() {}", "",
		"func fillTile() {}", "",
		"\tWorkers int\n", "",
	).Replace(files["internal/alpha/alpha.go"])
	files["docs/GUIDE.md"] = "Call\n`alpha.Start` first.\n"
	n, out := spans(t, writeTree(t, files))
	for _, want := range []string{
		"DESIGN.md:1: `alpha.Start`",
		"DESIGN.md:1: `alpha.Engine.Run`",
		"DESIGN.md:1: `alpha.(*Engine).Run`",
		"DESIGN.md:2: `alpha.Engine.Workers`",
		"DESIGN.md:2: `alpha.Run`",
		"GUIDE.md:2: `alpha.Start`",
		"DESIGN.md:10: `Start`",
		"DESIGN.md:10: `(*Engine).Run`",
		"DESIGN.md:10: `Engine.Workers`",
		"DESIGN.md:10: `fillTile`",
		"DESIGN.md:11: `Run`",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %s", want)
		}
	}
	if n != 11 {
		t.Errorf("%d stale identifiers, want 11:\n%s", n, out)
	}
}

// TestDeletedPathFails deletes a command directory that live docs still
// name — as a directory, a command line, a file in it and a glob that
// only it matched — and the check must name each span, with its file
// and line.
func TestDeletedPathFails(t *testing.T) {
	files := fixture()
	delete(files, "cmd/tool/main.go")
	files["docs/GUIDE.md"] = "Run\n`cmd/tool` first.\n"
	n, out := spans(t, writeTree(t, files))
	for _, want := range []string{
		"DESIGN.md:8: `cmd/tool` names no file",
		"DESIGN.md:9: `cmd/*/main.go` names no file",
		"GUIDE.md:2: `cmd/tool` names no file",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %s", want)
		}
	}
	if n != 3 {
		t.Errorf("%d stale spans, want 3:\n%s", n, out)
	}
}

// godocFixture is a module whose Go code the godoc check passes: every
// package has a package comment and every exported identifier a doc
// comment, or needs none — a method on an unexported type, the members
// of a documented group, a const with a line comment, anything in a
// test file — and a nested module is checked too.
func godocFixture() map[string]string {
	return map[string]string{
		"go.mod": "module fix\n\ngo 1.22\n",
		"internal/alpha/alpha.go": `// Package alpha is documented.
package alpha

// Engine runs.
type Engine struct{}

// Run runs.
func (e *Engine) Run() {}

type engine struct{}

func (e *engine) Run() {}

// Limits bound a run.
const (
	Low  = 1
	High = 2
)

const Depth = 3 // nesting depth
`,
		"internal/alpha/alpha_test.go": "package alpha\n\nfunc Helper() {}\n",
		"bench/go.mod":                 "module bench\n",
		"bench/main.go":                "// Command bench measures.\npackage main\n\n// Seconds is how long.\nvar Seconds = 1\n\nfunc main() {}\n",
	}
}

// TestGodocPasses: a tree that documents everything that needs it has
// no finding.
func TestGodocPasses(t *testing.T) {
	var out strings.Builder
	if n := lint(writeTree(t, godocFixture()), &out); n != 0 {
		t.Fatalf("%d findings in a documented tree:\n%s", n, out.String())
	}
}

// TestGodocFindsUndocumented drops a package comment and the doc
// comments of an exported func, a method, a type and a const group —
// one under internal/, one in the nested module — and the check must
// name each, with its file and line.
func TestGodocFindsUndocumented(t *testing.T) {
	files := godocFixture()
	files["internal/alpha/alpha.go"] = strings.NewReplacer(
		"// Package alpha is documented.\n", "",
		"// Engine runs.\n", "",
		"// Run runs.\n", "",
		"// Limits bound a run.\n", "",
	).Replace(files["internal/alpha/alpha.go"]) + "\nfunc Start() {}\n"
	files["bench/main.go"] = strings.Replace(files["bench/main.go"], "// Seconds is how long.\n", "", 1)
	var out strings.Builder
	n := lint(writeTree(t, files), &out)
	for _, want := range []string{
		filepath.FromSlash("internal/alpha/alpha.go") + ":1: package alpha has no package comment",
		filepath.FromSlash("internal/alpha/alpha.go") + ":3: type Engine is exported but undocumented",
		"alpha.go:5: method Run is exported but undocumented",
		"alpha.go:12: const Low is exported but undocumented",
		"alpha.go:13: const High is exported but undocumented",
		"alpha.go:18: func Start is exported but undocumented",
		filepath.FromSlash("bench/main.go") + ":4: var Seconds is exported but undocumented",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q", want)
		}
	}
	if n != 7 {
		t.Errorf("%d findings, want 7:\n%s", n, out.String())
	}
}

// TestRepositoryIsClean runs every check — links, spans, godoc — on the
// repository itself, so that `go test ./...` fails on a broken link, a
// stale span or an undocumented export.
func TestRepositoryIsClean(t *testing.T) {
	var out strings.Builder
	if n := lint(filepath.Join("..", ".."), &out); n != 0 {
		t.Fatalf("%d finding(s) in the repository:\n%s", n, out.String())
	}
}
