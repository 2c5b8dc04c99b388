package delaydefense

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// goNames is what a Go source tree names: its packages, the identifiers
// it declares (functions, methods, types, fields, variables, constants),
// the standard-library packages it imports, by the name it imports them
// under, and its string literals (fault points, metric and span names).
type goNames struct {
	pkgs    map[string]bool
	decl    map[string]bool
	imports map[string]string // package name → import path
	strs    map[string]bool
}

func newGoNames() *goNames {
	return &goNames{pkgs: map[string]bool{}, decl: map[string]bool{}, imports: map[string]string{}, strs: map[string]bool{}}
}

// addFile records the names one parsed file declares, imports and spells.
func (n *goNames) addFile(f *ast.File) {
	n.pkgs[f.Name.Name] = true
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if first, _, _ := strings.Cut(p, "/"); strings.Contains(first, ".") || first == "repro" {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		n.imports[name] = p
	}
	ast.Inspect(f, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncDecl:
			n.decl[node.Name.Name] = true
		case *ast.TypeSpec:
			n.decl[node.Name.Name] = true
		case *ast.ValueSpec:
			for _, id := range node.Names {
				n.decl[id.Name] = true
			}
		case *ast.Field:
			for _, id := range node.Names {
				n.decl[id.Name] = true
			}
		case *ast.BasicLit:
			if s, err := strconv.Unquote(node.Value); node.Kind == token.STRING && err == nil {
				n.strs[s] = true
			}
		}
		return true
	})
}

// stdlibDecls returns the identifiers the standard-library package at
// import path p declares in its non-test sources.
func stdlibDecls(t *testing.T, p string) map[string]bool {
	t.Helper()
	dir := filepath.Join(runtime.GOROOT(), "src", filepath.FromSlash(p))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("standard library package %s: %v", p, err)
	}
	names := newGoNames()
	fset := token.NewFileSet()
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		names.addFile(f)
	}
	return names.decl
}

// TestDesignNamesLiveIdentifiers: every backticked dotted Go name in
// DESIGN.md and README.md (`Prepared.ExecIn`, `engine.PartitionSet`,
// `http.Client`) is a string the module spells out, such as the fault
// point `wal.append`, or every segment of it is a name that exists: the
// first a package of the module or one it imports from the standard
// library, or an identifier the module declares; each later one an
// identifier the module declares or, after a standard-library package,
// one that package declares. A rename or a deletion that leaves a doc
// naming what is gone — a type as much as its field (`selPlan.lean`) —
// fails here. File names and tokens holding `/` or `(` (paths, calls,
// profile frames) are not Go names and are skipped.
func TestDesignNamesLiveIdentifiers(t *testing.T) {
	names := newGoNames()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names.addFile(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stdlib := map[string]map[string]bool{}
	ticked := regexp.MustCompile("`([^`\n]+)`")
	dotted := regexp.MustCompile(`^\*?[A-Za-z_]\w*(\.[A-Za-z_]\w*)+$`)
	fileName := regexp.MustCompile(`\.(go|json|md|sh)$`)
	for _, name := range []string{"DESIGN.md", "README.md"} {
		doc, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(doc), "\n") {
			for _, m := range ticked.FindAllStringSubmatch(line, -1) {
				tok := m[1]
				if !dotted.MatchString(tok) || fileName.MatchString(tok) || names.strs[tok] {
					continue
				}
				parts := strings.Split(strings.TrimPrefix(tok, "*"), ".")
				std := names.imports[parts[0]]
				if std != "" && stdlib[std] == nil {
					stdlib[std] = stdlibDecls(t, std)
				}
				for j, seg := range parts {
					if names.decl[seg] || j == 0 && (names.pkgs[seg] || std != "") || j > 0 && stdlib[std][seg] {
						continue
					}
					t.Errorf("%s:%d: `%s`: %s is no package, and no identifier in the module or the standard-library packages it imports", name, i+1, tok, seg)
					break
				}
			}
		}
	}
}
