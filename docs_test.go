package svagc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docNotDeclared lists the backticked Go-shaped names the docs may use
// although no Go file in the repository declares them:
// standard-library names and tokens that only look like Go.
var docNotDeclared = map[string]bool{
	"errors.As":            true,
	"errors.Is":            true,
	"testing.AllocsPerRun": true,
	"DESIGN.md":            true, // file names
	"EXPERIMENTS.md":       true,
	"PF_MEMALLOC":          true, // the Linux task flag
	"tlbHits":              true, // a local of mmu's settlement, named in a formula
}

// identToken is a backticked span that reads as a Go name: an Ident, a
// pkg.Ident, a Type.Member, or a longer selector chain.
var identToken = regexp.MustCompile("^[A-Za-z_][A-Za-z0-9_]*(\\.[A-Za-z_][A-Za-z0-9_]*)*$")

// historySection starts a dated EXPERIMENTS.md section that records a
// measurement as of one change, naming the code as it was then.
const historySection = "## Harness performance"

// TestDocsNameDeclaredIdentifiers keeps the docs from naming code that is
// gone: every backticked Go-shaped name with a capital letter in
// DESIGN.md, README.md and EXPERIMENTS.md (outside fenced code blocks and
// EXPERIMENTS.md's dated harness-performance history) must resolve to a
// declaration in the repository's Go files, or be listed in
// docNotDeclared. A name resolves when it is a declared identifier, a
// package's top-level name, or a type's method or field (promoted
// through embedding), chained left to right.
func TestDocsNameDeclaredIdentifiers(t *testing.T) {
	d := parseDecls(t, ".")
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced, history := false, false
		for i, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "## ") {
				history = strings.HasPrefix(line, historySection)
			}
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced || history {
				continue
			}
			parts := strings.Split(line, "`")
			for j := 1; j < len(parts); j += 2 {
				tok := parts[j]
				if !identToken.MatchString(tok) || strings.ToLower(tok) == tok ||
					docNotDeclared[tok] || d.resolves(tok) {
					continue
				}
				t.Errorf("%s:%d: `%s` names nothing a Go file declares", doc, i+1, tok)
			}
		}
	}
}

// decls indexes the repository's declarations by name.
type decls struct {
	idents  map[string]bool              // every declared name
	pkgs    map[string]map[string]string // package → top-level name → its type
	members map[string]map[string]string // type → method or field → the field's type
	embeds  map[string][]string          // type → embedded types
}

// parseDecls parses every Go file under root, test files included,
// skipping testdata and hidden directories.
func parseDecls(t *testing.T, root string) *decls {
	t.Helper()
	d := &decls{idents: map[string]bool{}, pkgs: map[string]map[string]string{},
		members: map[string]map[string]string{}, embeds: map[string][]string{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
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
		d.addFile(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func (d *decls) addFile(f *ast.File) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if d.pkgs[pkg] == nil {
		d.pkgs[pkg] = map[string]string{}
	}
	top := func(name, typ string) {
		d.idents[name] = true
		d.pkgs[pkg][name] = typ
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				top(decl.Name.Name, "")
			} else {
				d.member(typeName(decl.Recv.List[0].Type), decl.Name.Name, "")
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					top(spec.Name.Name, spec.Name.Name)
					d.addType(spec.Name.Name, spec.Type)
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						top(n.Name, typeName(spec.Type))
					}
				}
			}
		}
	}
}

// addType records a type's fields, interface methods and embeddings.
func (d *decls) addType(name string, expr ast.Expr) {
	var list *ast.FieldList
	switch expr := expr.(type) {
	case *ast.StructType:
		list = expr.Fields
	case *ast.InterfaceType:
		list = expr.Methods
	default:
		return
	}
	for _, f := range list.List {
		typ := typeName(f.Type)
		if len(f.Names) == 0 {
			d.embeds[name] = append(d.embeds[name], typ)
			d.member(name, typ, typ)
		}
		for _, n := range f.Names {
			d.member(name, n.Name, typ)
		}
	}
}

func (d *decls) member(typ, name, memberType string) {
	d.idents[name] = true
	if d.members[typ] == nil {
		d.members[typ] = map[string]string{}
	}
	d.members[typ][name] = memberType
}

// typeName is the bare name of a type expression: *pkg.T[X] is T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	}
	return ""
}

// lookup finds name among typ's members, then its embedded types'.
func (d *decls) lookup(typ, name string, depth int) (string, bool) {
	if m, ok := d.members[typ][name]; ok {
		return m, true
	}
	if depth > 4 {
		return "", false
	}
	for _, e := range d.embeds[typ] {
		if m, ok := d.lookup(e, name, depth+1); ok {
			return m, true
		}
	}
	return "", false
}

// resolves reports whether a dotted name resolves left to right.
func (d *decls) resolves(tok string) bool {
	parts := strings.Split(tok, ".")
	if len(parts) == 1 {
		return d.idents[tok]
	}
	var typ string
	if top, ok := d.pkgs[parts[0]]; ok {
		t, ok := top[parts[1]]
		if !ok {
			return false
		}
		typ, parts = t, parts[2:]
	} else if _, ok := d.members[parts[0]]; ok {
		typ, parts = parts[0], parts[1:]
	} else {
		return false
	}
	for _, p := range parts {
		t, ok := d.lookup(typ, p, 0)
		if !ok {
			return false
		}
		typ = t
	}
	return true
}
