// Command mdlint checks the repository's Markdown for broken relative
// links without touching the network: every `[text](target)` whose
// target is not an absolute URL (no "://" and no "mailto:") must point
// at an existing file or directory, resolved against the linking file's
// directory. Fenced code blocks are skipped, fragments (`#...`) and
// query strings are stripped before the existence check. In a root that
// holds a go.mod it also checks the backticked spans of the live docs
// (DESIGN.md, README.md, docs/*.md): every qualified Go identifier must
// name a declaration of that module, and every repo-relative path under
// internal/, cmd/, examples/, docs/ or bench/ an existing file or
// directory (see checkSpans). Broken links and stale spans exit with
// status 1.
//
// Usage:
//
//	go run ./cmd/mdlint [dir ...]
package main

import (
	"fmt"
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
	var files []string
	for _, root := range roots {
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
	}
	sort.Strings(files)

	broken := 0
	for _, path := range files {
		broken += lintFile(path)
	}
	stale := 0
	for _, root := range roots {
		stale += checkSpans(root, os.Stderr)
	}
	if broken > 0 || stale > 0 {
		fmt.Fprintf(os.Stderr, "mdlint: %d broken link(s), %d stale span(s)\n", broken, stale)
		os.Exit(1)
	}
}

// lintFile reports broken relative links in one Markdown file.
func lintFile(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	broken := 0
	inFence := false
	for lineNo, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
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
				fmt.Fprintf(os.Stderr, "mdlint: %s:%d: broken link %q (resolved %s)\n",
					path, lineNo+1, m[1], resolved)
				broken++
			}
		}
	}
	return broken
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdlint:", err)
	os.Exit(1)
}
