// Command mdlint is the repository's documentation lint. It checks,
// without touching the network:
//
//   - links: in every Markdown file, every `[text](target)` whose target
//     is not an absolute URL (no "://" and no "mailto:") points at an
//     existing file or directory, resolved against the linking file's
//     directory. Fenced code blocks are skipped, fragments (`#...`) and
//     query strings are stripped before the existence check;
//   - spans: in a root that holds a go.mod, every backticked Go
//     identifier of the live docs (DESIGN.md, README.md, docs/*.md) names
//     a declaration of the Go code under the root, and every repo-relative
//     path under internal/, cmd/, examples/, docs/ or bench/ an existing
//     file or directory (see checkSpans);
//   - godoc: every package of the Go code under that root has a package
//     comment and every exported identifier a doc comment; test files
//     are exempt (see godoc).
//
// One walk parses the Go code once for both of the last two. Every
// finding is printed with its file and line; any finding exits with
// status 1.
//
// Usage:
//
//	go run ./cmd/mdlint [dir ...]
package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// linkRe matches inline Markdown links. Reference-style definitions
// `[id]: target` are rare in this repo and intentionally not checked.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)[^)]*\)`)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	n := 0
	for _, root := range roots {
		n += lint(root, os.Stderr)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "mdlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// lint runs every check on the tree at root, reports each finding on w
// and returns how many it found.
func lint(root string, w io.Writer) int {
	n := checkLinks(root, w)
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return n // not a module: no Go code to check
	}
	m, err := loadModule(root, w)
	if err != nil {
		fatal(err)
	}
	return n + m.undocumented + checkSpans(root, m, w)
}

// checkLinks reports broken relative links in every Markdown file under
// root.
func checkLinks(root string, w io.Writer) int {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") && path != root || name == "vendor" || name == "node_modules" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	sort.Strings(files)
	broken := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		for lineNo, line := range strings.Split(blankFences(string(data)), "\n") {
			for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") ||
					strings.HasPrefix(target, "mailto:") ||
					strings.HasPrefix(target, "#") {
					continue
				}
				// Strip fragment and query before the existence check.
				if i := strings.IndexAny(target, "#?"); i >= 0 {
					target = target[:i]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
				if _, err := os.Stat(resolved); err != nil {
					fmt.Fprintf(w, "mdlint: %s:%d: broken link %q (resolved %s)\n",
						path, lineNo+1, m[1], resolved)
					broken++
				}
			}
		}
	}
	return broken
}

// blankFences empties the lines of fenced code blocks, keeping the line
// count, so links and spans are read from prose only.
func blankFences(text string) string {
	lines := strings.Split(text, "\n")
	inFence := false
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		fence := strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~")
		if fence {
			inFence = !inFence
		}
		if fence || inFence {
			lines[i] = ""
		}
	}
	return strings.Join(lines, "\n")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdlint:", err)
	os.Exit(1)
}
