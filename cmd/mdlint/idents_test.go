package main

import (
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
			"`cmd/*/main.go` (a glob), `internal/`, `sub/gone` (not a top directory).\n",
		"EXPERIMENTS.md": "History names what is gone: `alpha.Stop`, `cmd/gone`.\n",
	}
}

// TestLiveDocsResolve: every kind of name and path the fixture's docs
// use resolves, and a fenced block or a history file naming a deleted
// identifier or directory does not count.
func TestLiveDocsResolve(t *testing.T) {
	var out strings.Builder
	if n := checkSpans(writeTree(t, fixture()), &out); n != 0 {
		t.Fatalf("%d stale spans in a tree that has them all:\n%s", n, out.String())
	}
}

// TestDeletedIdentifierFails deletes declarations that live docs still
// name — a function, a method, a field — and the check must name each
// one, with its file and line.
func TestDeletedIdentifierFails(t *testing.T) {
	files := fixture()
	files["internal/alpha/alpha.go"] = strings.NewReplacer(
		"func Start() {}", "",
		"func (e *Engine) Run() {}", "",
		"\tWorkers int\n", "",
	).Replace(files["internal/alpha/alpha.go"])
	files["docs/GUIDE.md"] = "Call\n`alpha.Start` first.\n"
	var out strings.Builder
	n := checkSpans(writeTree(t, files), &out)
	for _, want := range []string{
		"DESIGN.md:1: `alpha.Start`",
		"DESIGN.md:1: `alpha.Engine.Run`",
		"DESIGN.md:1: `alpha.(*Engine).Run`",
		"DESIGN.md:2: `alpha.Engine.Workers`",
		"DESIGN.md:2: `alpha.Run`",
		"GUIDE.md:2: `alpha.Start`",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %s", want)
		}
	}
	if n != 6 {
		t.Errorf("%d stale identifiers, want 6:\n%s", n, out.String())
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
	var out strings.Builder
	n := checkSpans(writeTree(t, files), &out)
	for _, want := range []string{
		"DESIGN.md:8: `cmd/tool` names no file",
		"DESIGN.md:9: `cmd/*/main.go` names no file",
		"GUIDE.md:2: `cmd/tool` names no file",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %s", want)
		}
	}
	if n != 3 {
		t.Errorf("%d stale spans, want 3:\n%s", n, out.String())
	}
}
