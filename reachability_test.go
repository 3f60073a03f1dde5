package tolerance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyDirective marks an exported internal/ declaration that only
// tests use: a reference implementation a test compares against, or a
// seam a test drives. The rest of the line gives the reason.
const testOnlyDirective = "//tolerance:testonly"

// TestInternalCodeIsReachable is the dead-code gate. It fails on
//   - an internal/ package that no non-test package outside examples/
//     imports (a test-only package, with no non-test file, holds nothing
//     to keep alive),
//   - an exported package-level func, type, var or const, an exported
//     method, or an exported method of an interface type, declared in
//     internal/, that no non-test code outside examples/ uses, and
//   - an unexported package-level func, type, var or const declared in
//     internal/ that no non-test file of its package uses.
//
// Examples are demos of the library, not reasons to keep code alive; cmd/
// and bench/ count. Uses are resolved to go/types objects, so a dead
// method is caught even when a live identifier shares its name; an
// interface's method is used where it is called through that interface
// (or one embedding it), not where an implementation is called directly.
// Uses inside the object's own declaration, and receivers, do not count.
// Exempt by rule: a method of a type that implements another interface
// with that method (calls reach it through that interface), and a
// declaration whose doc comment carries testOnlyDirective with a reason.
// A marked object that non-test code does use fails too, so no mark
// outlives its reason.
func TestInternalCodeIsReachable(t *testing.T) {
	pkgs := listPackages(t)
	var mod string
	product := map[string]*listedPackage{}
	for _, p := range pkgs {
		if p.Module != nil && p.Module.Main {
			mod = p.Module.Path
			if len(p.GoFiles) > 0 && !strings.HasPrefix(p.ImportPath, mod+"/examples/") {
				product[p.ImportPath] = p
			}
		}
	}
	internal := mod + "/internal/"

	imported := map[string]bool{}
	for _, p := range product {
		for _, imp := range p.Imports {
			imported[imp] = true
		}
	}
	var failures []string
	for path := range product {
		if strings.HasPrefix(path, internal) && !imported[path] {
			failures = append(failures, fmt.Sprintf("package %s has no non-test importer outside examples/", path))
		}
	}

	l := newReachLoader(pkgs, product)
	for path := range product {
		if _, err := l.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	type candidate struct {
		decl ast.Node // uses inside it do not count
		doc  *ast.CommentGroup
		used bool
	}
	cands := map[types.Object]*candidate{}
	receivers := map[*ast.Ident]bool{}
	for path, files := range l.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					}
					if strings.HasPrefix(path, internal) && (d.Name.IsExported() || d.Recv == nil && d.Name.Name != "init" && d.Name.Name != "_") {
						cands[l.info.Defs[d.Name]] = &candidate{decl: d, doc: d.Doc}
					}
				case *ast.GenDecl:
					if !strings.HasPrefix(path, internal) {
						continue
					}
					for _, spec := range d.Specs {
						var names []*ast.Ident
						var doc *ast.CommentGroup
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names, doc = []*ast.Ident{s.Name}, s.Doc
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, name := range m.Names { // none for an embedded interface
										if name.IsExported() {
											cands[l.info.Defs[name]] = &candidate{decl: m, doc: m.Doc}
										}
									}
								}
							}
						case *ast.ValueSpec:
							names, doc = s.Names, s.Doc
						}
						if doc == nil && len(d.Specs) == 1 {
							doc = d.Doc
						}
						for _, name := range names {
							if name.Name != "_" {
								cands[l.info.Defs[name]] = &candidate{decl: spec, doc: doc}
							}
						}
					}
				}
			}
		}
	}

	for id, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if c := cands[obj]; c != nil && !receivers[id] && (id.Pos() < c.decl.Pos() || id.Pos() >= c.decl.End()) {
			c.used = true
		}
	}

	ifaces, err := l.interfaces(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for obj, c := range cands {
		reason, marked := directive(c.doc)
		var fault string
		switch {
		case marked && reason == "":
			fault = "carries " + testOnlyDirective + " with no reason"
		case marked && c.used:
			fault = "is marked " + testOnlyDirective + " but non-test code uses it; drop the mark"
		case !marked && !c.used && !implementsInterfaceMethod(obj, ifaces):
			fault = "has no use outside tests and examples/; delete it, or mark it " + testOnlyDirective + " <reason>"
		default:
			continue
		}
		failures = append(failures, fmt.Sprintf("%s: %s %s", l.where(obj), l.name(obj), fault))
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}

// directive returns the reason a doc comment's testOnlyDirective gives,
// and whether the comment carries one.
func directive(doc *ast.CommentGroup) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if rest, ok := strings.CutPrefix(c.Text, testOnlyDirective); ok && (rest == "" || rest[0] == ' ') {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// implementsInterfaceMethod reports whether obj is a method of a type
// that implements one of ifaces other than its own (an interface's
// methods' receiver is the interface), and that interface has obj's name.
func implementsInterfaceMethod(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	T := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := T.(*types.Pointer); ok {
		T = p.Elem()
	}
	for _, iface := range ifaces {
		if types.Identical(iface, T.Underlying()) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() && (types.Implements(T, iface) || types.Implements(types.NewPointer(T), iface)) {
				return true
			}
		}
	}
	return false
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	Standard   bool
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// listPackages returns every package of the module and its dependencies,
// each with its compiled export data, from one go list call.
func listPackages(t *testing.T) []*listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		if p.Error != nil {
			t.Fatalf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
}

// reachLoader type-checks the product packages from source, so that one
// object stands for each declaration across the module, and imports the
// standard library from its export data.
type reachLoader struct {
	fset    *token.FileSet
	product map[string]*listedPackage
	std     types.Importer
	info    *types.Info
	files   map[string][]*ast.File
	checked map[string]*types.Package
}

func newReachLoader(pkgs []*listedPackage, product map[string]*listedPackage) *reachLoader {
	export := map[string]string{}
	for _, p := range pkgs {
		export[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	return &reachLoader{
		fset:    fset,
		product: product,
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if export[path] == "" {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(export[path])
		}),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		files:   map[string][]*ast.File{},
		checked: map[string]*types.Package{},
	}
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	p := l.product[path]
	if p == nil {
		return l.std.Import(path)
	}
	if pkg := l.checked[path]; pkg != nil {
		return pkg, nil
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.files[path], l.checked[path] = files, pkg
	return pkg, nil
}

// interfaces returns every interface with methods that product code
// names, and every one the standard library packages it depends on
// declare.
func (l *reachLoader) interfaces(pkgs []*listedPackage) ([]*types.Interface, error) {
	var out []*types.Interface
	seen := map[*types.Interface]bool{}
	add := func(typ types.Type) {
		if iface, ok := typ.Underlying().(*types.Interface); ok && iface.IsMethodSet() && iface.NumMethods() > 0 && !seen[iface] {
			seen[iface] = true
			out = append(out, iface)
		}
	}
	for _, tv := range l.info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	for _, p := range pkgs {
		if !p.Standard || p.Export == "" {
			continue
		}
		pkg, err := l.std.Import(p.ImportPath)
		if err != nil {
			return nil, err
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	return out, nil
}

// name spells obj as its package's code does, with the receiver type
// before a method.
func (l *reachLoader) name(obj types.Object) string {
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		return types.TypeString(sig.Recv().Type(), types.RelativeTo(obj.Pkg())) + "." + obj.Name()
	}
	return obj.Name()
}

// where is obj's declaration as file:line relative to the module root.
func (l *reachLoader) where(obj types.Object) string {
	pos := l.fset.Position(obj.Pos())
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = rel
		}
	}
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}
