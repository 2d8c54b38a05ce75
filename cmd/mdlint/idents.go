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

// identRe matches a span that is one unqualified identifier: Name,
// Type.Member or (*Type).Member, each maybe called (`Name()`,
// `Name(a, b)`). The first group is the identifier without the call.
var identRe = regexp.MustCompile(`^((?:\(\*?([A-Za-z_]\w*)\)|([A-Za-z_]\w*))(?:\.([A-Za-z_]\w*))?)(?:\(.*\))?$`)

// capsRe matches an all-caps name — an instruction, an environment
// variable, a Fortran routine, a journal magic — which is not an
// identifier of the Go code.
var capsRe = regexp.MustCompile(`^[A-Z0-9_]+$`)

// pathRe matches a repo-relative path at the start of a span: a path
// under one of the tree's top directories, up to the first space or ':'
// (`cmd/ccsim fig9`, `internal/x/y.go:51`). A * in it is a glob.
var pathRe = regexp.MustCompile(`^(?:internal|cmd|examples|docs|bench)/[^\s:]*`)

// fileRe matches spans that are file names, never identifiers.
var fileRe = regexp.MustCompile(`^[\w./*-]+\.(go|md|json|s|txt|csv|svg|golden|yml|mod|dot|test|journal)$`)

// decls are the declarations of one package name, or of the whole
// module: its top-level identifiers, the methods and fields each of its
// types declares, and every method and field name, for the pkg.Method
// shorthand docs use for a method of one of its types.
type decls struct {
	names   map[string]bool
	members map[string]map[string]bool // type → its methods and fields
	any     map[string]bool
}

func newDecls() *decls {
	return &decls{names: make(map[string]bool), members: make(map[string]map[string]bool), any: make(map[string]bool)}
}

// typ returns the members of type name, recording the type.
func (p *decls) typ(name string) map[string]bool {
	if p.members[name] == nil {
		p.members[name] = make(map[string]bool)
	}
	return p.members[name]
}

// member records that type typ declares m.
func (p *decls) member(typ, m string) {
	p.typ(typ)[m] = true
	p.any[m] = true
}

// module is the Go code under a root, parsed once: its declarations by
// package name and all together, and the number of godoc findings the
// parse reported.
type module struct {
	pkgs         map[string]*decls
	all          *decls
	undocumented int
}

// loadModule parses every Go file under root, test files included, and
// indexes its declarations: by package name (an external test package
// foo_test counts as foo) and all together. Declarations of a nested
// module count for the godoc check only. Hidden, testdata and vendor
// directories are skipped. The godoc check's findings go to w.
func loadModule(root string, w io.Writer) (*module, error) {
	m := &module{pkgs: make(map[string]*decls), all: newDecls()}
	fset := token.NewFileSet()
	// docs maps a directory's package to where its first file names it,
	// or to "" once a file documents it.
	docs := make(map[string]string)
	var nested []string // roots of nested modules
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				nested = append(nested, path+string(filepath.Separator))
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if !strings.HasSuffix(path, "_test.go") {
			key := filepath.Dir(path) + "/" + f.Name.Name
			if _, seen := docs[key]; !seen {
				p := fset.Position(f.Package)
				docs[key] = fmt.Sprintf("%s:%d: package %s", p.Filename, p.Line, f.Name.Name)
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				docs[key] = ""
			}
			m.undocumented += godoc(fset, f, w)
		}
		for _, n := range nested {
			if strings.HasPrefix(path, n) {
				return nil
			}
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		if m.pkgs[name] == nil {
			m.pkgs[name] = newDecls()
		}
		m.pkgs[name].add(f)
		m.all.add(f)
		return nil
	})
	var undocumented []string
	for _, at := range docs {
		if at != "" {
			undocumented = append(undocumented, at)
		}
	}
	sort.Strings(undocumented)
	for _, at := range undocumented {
		fmt.Fprintf(w, "mdlint: %s has no package comment\n", at)
	}
	m.undocumented += len(undocumented)
	return m, err
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
					p.typ(s.Name.Name)
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

// godoc reports, on w, every exported top-level identifier of f without
// a doc comment — funcs, types, methods on exported types, and the
// names of const and var declarations — and returns how many it found.
// A group's doc comment covers all of its specs, as godoc renders it,
// and so does a trailing line comment on a const or var.
func godoc(fset *token.FileSet, f *ast.File, w io.Writer) int {
	n := 0
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		fmt.Fprintf(w, "mdlint: %s:%d: %s %s is exported but undocumented\n", p.Filename, p.Line, kind, name)
		n++
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			switch {
			case !d.Name.IsExported() || d.Doc != nil:
			case d.Recv == nil:
				report(d.Pos(), "func", d.Name.Name)
			case token.IsExported(recvName(d.Recv.List[0].Type)):
				report(d.Pos(), "method", d.Name.Name)
			}
		case *ast.GenDecl:
			if d.Doc != nil {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					if s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, id := range s.Names {
						if id.IsExported() {
							report(id.Pos(), d.Tok.String(), id.Name)
						}
					}
				}
			}
		}
	}
	return n
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

// stale returns the identifier a span names if no declaration of m has
// it, and "" when the span names a declaration or is no identifier of
// the module.
//
// A span that starts with one of the module's package names is
// qualified: its name must be a declaration of that package, and its
// member one of that type's. Lower-case names after a package name are
// not checked: the benchmark's metric keys (`runtime.parks`,
// `netrun.retransmits`) are spelled that way.
//
// Any other span that is one identifier is checked against every
// declaration and member of the module, unexported ones included:
// Name, Type.Member and (*Type).Member, called or not. After a name that
// is no type (`in.Ref.Class`, `sync.Pool`) the member is not checked, and
// a name without an upper-case letter (`water`, `quick`, `dgemm(...)`)
// is a word, not an identifier. Nor is an all-caps name (`VPERMPD`,
// `READA(l1, l2, 0)`): those are instructions, environment variables
// and the paper's Fortran.
func stale(m *module, span string) string {
	if fileRe.MatchString(span) {
		return ""
	}
	if q := qualRe.FindStringSubmatch(span); q != nil && m.pkgs[q[1]] != nil {
		if strings.HasPrefix(span[len(q[0]):], "/") {
			return ""
		}
		p, name, member := m.pkgs[q[1]], q[2]+q[3], q[4]
		switch {
		case !token.IsExported(name):
		case member != "" && !p.members[name][member],
			member == "" && !p.names[name] && !p.any[name]:
			return q[0]
		}
		return ""
	}
	id := identRe.FindStringSubmatch(span)
	if id == nil || capsRe.MatchString(id[2]+id[3]) {
		return ""
	}
	ref, typ, name, member := id[1], id[2], id[3], id[4]
	if member != "" && m.all.members[name] != nil {
		typ = name
	}
	switch {
	case typ != "":
		if !m.all.members[typ][member] {
			return ref
		}
	case strings.ToLower(name) != name && !m.all.names[name] && !m.all.any[name]:
		return name
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
// root that names an identifier no declaration of m has, or a
// repo-relative path no file or directory under root matches, and
// returns how many it found.
func checkSpans(root string, m *module, w io.Writer) int {
	var files []string
	for _, pat := range liveDocs {
		found, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(pat)))
		if err != nil {
			fatal(err)
		}
		files = append(files, found...)
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
			if name := stale(m, span); name != "" {
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
