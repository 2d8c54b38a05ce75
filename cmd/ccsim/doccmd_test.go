package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode"
)

// documentedIn lists the files whose ccsim command lines must keep
// parsing, relative to the repository root; docs/*.md is added by glob.
var documentedIn = []string{
	"Makefile",
	".github/workflows/ci.yml",
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
}

// invocations extracts the argument lists of every `ccsim ...` mention
// in text: after the word ccsim (bare or as cmd/ccsim) up to the end of
// the command. Inside a Markdown code span that is the closing
// backtick, which may be on a later line; elsewhere it is the end of
// the line (a trailing backslash joins the next one). Shell punctuation
// — '#', '|', ';', '<', '>', '&', a parenthesis — ends it too. A mention
// followed by nothing (the name alone) yields an empty list.
func invocations(text string) [][]string {
	var out [][]string
	text = strings.ReplaceAll(text, "\\\n", " ")
	wordChar := func(r byte) bool {
		return r == '_' || r == '-' || unicode.IsLetter(rune(r)) || unicode.IsDigit(rune(r))
	}
	for i := 0; ; {
		j := strings.Index(text[i:], "ccsim")
		if j < 0 {
			return out
		}
		start, end := i+j, i+j+len("ccsim")
		i = end
		if (start > 0 && wordChar(text[start-1])) || (end < len(text) && wordChar(text[end])) {
			continue // ccsimd, ccsim_new, ...
		}
		line := text[strings.LastIndexByte(text[:start], '\n')+1 : start]
		stop := "`#|;()<>&\n"
		if strings.Count(strings.ReplaceAll(line, "```", ""), "`")%2 == 1 {
			stop = "`#|;()<>&" // inside a code span: runs to its closing backtick
		}
		rest := text[end:]
		if k := strings.IndexAny(rest, stop); k >= 0 {
			rest = rest[:k]
		}
		out = append(out, shellFields(rest))
	}
}

// shellFields splits s on spaces, keeping quoted stretches together and
// dropping the quotes, and strips sentence punctuation off the end of
// each field.
func shellFields(s string) []string {
	var fields []string
	var cur strings.Builder
	var quote rune
	flush := func() {
		if f := strings.TrimRight(cur.String(), ".,:"); f != "" {
			fields = append(fields, f)
		}
		cur.Reset()
	}
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '"' || r == '\'':
			quote = r
		case unicode.IsSpace(r):
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return fields
}

// checkInvocation parses one extracted argument list against the real
// flag sets, without executing it. A list that starts with a flag is the
// pre-subcommand CLI (`ccsim -faults`); one that starts with neither a
// flag nor a subcommand is prose ("ccsim is the driver") and passes.
func checkInvocation(args []string) error {
	if len(args) == 0 {
		return nil
	}
	if strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("no subcommand before %s", args[0])
	}
	for _, c := range subcommands {
		if c.name != args[0] {
			continue
		}
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		c.setup(fs)
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() > 0 {
			return fmt.Errorf("unexpected argument %q (close the code span after the command)", fs.Arg(0))
		}
	}
	return nil
}

// TestDocumentedCommandsParse keeps the documented command lines from
// rotting: every ccsim invocation in the Makefile, the CI workflow and
// the Markdown guides must parse against the subcommands' flag sets.
func TestDocumentedCommandsParse(t *testing.T) {
	root := filepath.Join("..", "..")
	files := append([]string(nil), documentedIn...)
	md, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range md {
		files = append(files, filepath.Join("docs", filepath.Base(f)))
	}
	commands := 0
	for _, f := range files {
		text, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, args := range invocations(string(text)) {
			if err := checkInvocation(args); err != nil {
				t.Errorf("%s: `ccsim %s`: %v", f, strings.Join(args, " "), err)
			}
			if len(args) > 0 {
				n++
			}
		}
		if n == 0 && (f == "Makefile" || f == ".github/workflows/ci.yml" || f == "README.md") {
			t.Errorf("%s: no ccsim command line found; the extractor is broken", f)
		}
		commands += n
	}
	if commands < 30 {
		t.Errorf("only %d documented ccsim mentions with arguments found; the extractor is broken", commands)
	}
}

// TestCommandLintRejectsOldSpellings feeds the lint the documented lines
// as they read before the subcommand CLI: every one must fail, and the
// current form of each must pass.
func TestCommandLintRejectsOldSpellings(t *testing.T) {
	for _, tc := range []struct{ old, now string }{
		{"\t$(GO) run ./cmd/ccsim -kernels -kernelsout bench_kernels_new.json -kernelsbaseline BENCH_kernels.json",
			"\t$(GO) run ./cmd/ccsim kernels -out bench_kernels_new.json -baseline BENCH_kernels.json"},
		{"\t$(GO) run ./cmd/ccsim -csv fig9.csv", "\t$(GO) run ./cmd/ccsim fig9 -out fig9.csv"},
		{"\t$(GO) run ./cmd/ccsim -profile -profileout profile.json", "\t$(GO) run ./cmd/ccsim profile -out profile.json"},
		{"\t$(GO) run ./cmd/ccsim -real-dist 3", "\t$(GO) run ./cmd/ccsim real-dist -ranks 3"},
		{"        run: go run -race ./cmd/ccsim -faults -quick", "        run: go run -race ./cmd/ccsim faults -quick"},
		{"        run: go run ./cmd/ccsim -tune -quick -tunebudget 24", "        run: go run ./cmd/ccsim tune -quick -budget 24"},
		{"go run ./cmd/ccsim tune -quick -tunebudget 24   # half-migrated", "go run ./cmd/ccsim tune -quick -budget 24   # CI smoke (uracil, 8n)"},
		{"go run ./cmd/ccsim -sweep gaservice -variants original,v5", "go run ./cmd/ccsim sweep -name gaservice -variants original,v5"},
		{"go run ./cmd/ccsim sweep -name gaservice -sweepcores 7", "go run ./cmd/ccsim sweep -name gaservice -cores 7"},
		{"- counters: `go run ./cmd/ccsim sched\n  -variants v5 -schedworkers 1,8` prints", "- counters: `go run ./cmd/ccsim sched\n  -variants v5 -workers 1,8` prints"},
		{"go run ./cmd/ccsim -profile -preset betacarotene -nodes 32 \\\n    -profileout docs/profile.json", "go run ./cmd/ccsim profile -preset betacarotene -nodes 32 \\\n    -out docs/profile.json"},
		{"`go run ./cmd/ccsim -quick` (benzene/8 nodes)", "`go run ./cmd/ccsim fig9 -quick` (benzene/8 nodes)"},
		{"## Fault sweep (`cmd/ccsim -faults`)", "## Fault sweep (`cmd/ccsim faults`)"},
		{"The autotuner (`internal/tune`, `ccsim -tune`) is", "The autotuner (`internal/tune`, `ccsim tune`) is"},
		{"`ccsim faults` drives the sweep with -faultcores 7", "`ccsim faults -cores 7` drives the sweep"},
		{"run ccsim faults then read on", "run `ccsim faults` then read on"},
	} {
		lint := func(text string) error {
			for _, args := range invocations(text) {
				if err := checkInvocation(args); err != nil {
					return err
				}
			}
			return nil
		}
		if tc.old == "`ccsim faults` drives the sweep with -faultcores 7" {
			// The flag sits outside the code span: not a command line, so
			// the lint has nothing to parse. Listed to pin that boundary.
			if err := lint(tc.old); err != nil {
				t.Errorf("prose after a closed code span must not be parsed: %v", err)
			}
		} else if err := lint(tc.old); err == nil {
			t.Errorf("pre-PR spelling passes the lint: %q", tc.old)
		}
		if err := lint(tc.now); err != nil {
			t.Errorf("current spelling fails the lint: %q: %v", tc.now, err)
		}
	}
	// Mentions that are not command lines.
	for _, prose := range []string{
		"| `cmd/ccsim` | The experiment driver: Fig 9 sweep, ablations |",
		"E1 | `cmd/ccsim`, `BenchmarkFig9Original` |",
		"the daemon is cmd/ccsimd -smoke, not ccsim",
		"default `ccsim` (beta-carotene, 32 nodes) takes minutes",
	} {
		for _, args := range invocations(prose) {
			if err := checkInvocation(args); err != nil {
				t.Errorf("%q: %v", prose, err)
			}
		}
	}
}
