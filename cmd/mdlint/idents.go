package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// liveDocs are the files that describe the tree as it is. EXPERIMENTS.md
// and CHANGES.md are history and name what was deleted on purpose.
var liveDocs = []string{"DESIGN.md", "README.md", "docs/*.md"}

// spanRe matches an inline code span; a span may wrap a line.
var spanRe = regexp.MustCompile("`([^`]+)`")

// qualRe matches a qualified identifier at the start of a span:
// pkg.Name, pkg.Type.Member or pkg.(*Type).Member.
var qualRe = regexp.MustCompile(`^([a-z][a-z0-9]*)\.(?:\(\*?([A-Za-z_]\w*)\)|([A-Za-z_]\w*))(?:\.([A-Za-z_]\w*))?`)

// pathRe matches a repo-relative path at the start of a span: a path
// under one of the tree's top directories, up to the first space or ':'
// (`cmd/ccsim fig9`, `internal/x/y.go:51`). A * in it is a glob.
var pathRe = regexp.MustCompile(`^(?:internal|cmd|examples|docs|bench)/[^\s:]*`)

// fileRe matches spans that are file names, never identifiers.
var fileRe = regexp.MustCompile(`^[\w./*-]+\.(go|md|json|s|txt|csv|svg|golden|yml|mod|dot|test|journal)$`)

// decls are the declarations of one package name: its top-level
// identifiers, the methods and fields each of its types declares, and
// every method and field name of the package, for the pkg.Method
// shorthand docs use for a method of one of its types.
type decls struct {
	names   map[string]bool
	members map[string]map[string]bool // type → its methods and fields
	any     map[string]bool
}

// member records that type typ of p declares m.
func (p *decls) member(typ, m string) {
	if p.members[typ] == nil {
		p.members[typ] = make(map[string]bool)
	}
	p.members[typ][m] = true
	p.any[m] = true
}

// loadDecls parses every Go file of the module rooted at root, test
// files included, and indexes its declarations by package name. An
// external test package (foo_test) counts as foo. Nested modules and
// hidden or testdata directories are skipped.
func loadDecls(root string) (map[string]*decls, error) {
	pkgs := make(map[string]*decls)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		if pkgs[name] == nil {
			pkgs[name] = &decls{names: make(map[string]bool), members: make(map[string]map[string]bool), any: make(map[string]bool)}
		}
		pkgs[name].add(f)
		return nil
	})
	return pkgs, err
}

// add indexes one file's declarations. A type's members are those it
// declares; one promoted from an embedded type is named on the type
// that declares it.
func (p *decls) add(f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.names[d.Name.Name] = true
			} else if recv := recvName(d.Recv.List[0].Type); recv != "" {
				p.member(recv, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.names[n.Name] = true
					}
				case *ast.TypeSpec:
					p.names[s.Name.Name] = true
					var fields *ast.FieldList
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields
					case *ast.InterfaceType:
						fields = t.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, n := range fl.Names {
							p.member(s.Name.Name, n.Name)
						}
					}
				}
			}
		}
	}
}

// recvName is the type a receiver names: T from T, *T, T[K] or *T[K].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// stale returns a span's leading qualified identifier if it names no
// declaration, and "" otherwise. Spans that do not start with one of
// the module's package names are not identifiers of the module, and
// lower-case names after a package name are not checked: the
// benchmark's metric keys (`runtime.parks`, `netrun.retransmits`) are
// spelled that way.
func stale(pkgs map[string]*decls, span string) string {
	m := qualRe.FindStringSubmatch(span)
	if m == nil || fileRe.MatchString(span) || strings.HasPrefix(span[len(m[0]):], "/") {
		return ""
	}
	p, name, member := pkgs[m[1]], m[2]+m[3], m[4]
	if p == nil || !token.IsExported(name) {
		return ""
	}
	switch {
	case member != "" && !p.members[name][member],
		member == "" && !p.names[name] && !p.any[name]:
		return m[0]
	}
	return ""
}

// missing returns a span's leading repo-relative path if nothing under
// root matches it, and "" otherwise.
func missing(root, span string) string {
	p := pathRe.FindString(span)
	if p == "" {
		return ""
	}
	full := filepath.Join(root, filepath.FromSlash(p))
	if strings.Contains(p, "*") {
		if m, _ := filepath.Glob(full); len(m) > 0 {
			return ""
		}
	} else if _, err := os.Stat(full); err == nil {
		return ""
	}
	return p
}

// checkSpans reports, on w, every backticked span in the live docs under
// root that names a qualified identifier no declaration of the module at
// root has, or a repo-relative path no file or directory under root
// matches, and returns how many it found. A root without go.mod is not a
// module and has nothing to check.
func checkSpans(root string, w io.Writer) int {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return 0
	}
	pkgs, err := loadDecls(root)
	if err != nil {
		fatal(err)
	}
	var files []string
	for _, pat := range liveDocs {
		m, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(pat)))
		if err != nil {
			fatal(err)
		}
		files = append(files, m...)
	}
	sort.Strings(files)
	n := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		text := blankFences(string(data))
		for _, loc := range spanRe.FindAllStringSubmatchIndex(text, -1) {
			span := strings.Join(strings.Fields(text[loc[2]:loc[3]]), " ")
			line := 1 + strings.Count(text[:loc[0]], "\n")
			if name := stale(pkgs, span); name != "" {
				fmt.Fprintf(w, "mdlint: %s:%d: `%s` names no declaration\n", path, line, name)
				n++
			}
			if p := missing(root, span); p != "" {
				fmt.Fprintf(w, "mdlint: %s:%d: `%s` names no file\n", path, line, p)
				n++
			}
		}
	}
	return n
}

// blankFences empties the lines of fenced code blocks, keeping the line
// count, so spans are read from prose only.
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
