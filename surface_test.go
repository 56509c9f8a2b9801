package ucad

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow lists the exported identifiers under internal/ that no
// production code references, or fields it reads but never writes, and
// that stay anyway: one line, one reason.
// An entry that is gone, or that production code has started to call,
// fails the gate just like an unlisted dead identifier does.
var surfaceAllow = map[string]string{
	"internal/obs.(*Histogram).Count":     "read-only seam: tests assert an observation landed",
	"internal/obs.(*Histogram).Sum":       "read-only seam: tests assert the observed total",
	"internal/obs.(*Histogram).Snapshot":  "read-only seam: tests read bucket counts without parsing the exposition",
	"internal/scorecache.(*Cache).Cap":    "read-only seam: tests assert the configured capacity was applied",
	"internal/scorecache.(*Cache).Shards": "read-only seam: tests assert the shard count rounding",
	"internal/scorecache.(*Cache).Len":    "read-only seam: tests assert eviction and purge emptied the cache",
	"internal/feed.HTTPDeliverer.Backoff": "test seam: the delivery tests retry in milliseconds instead of the 50ms..5s default",
	"internal/feed.Backoff.Min":           "as HTTPDeliverer.Backoff: the tests' first retry delay",
	"internal/feed.Backoff.Max":           "as HTTPDeliverer.Backoff: the tests' retry delay cap",
	"internal/wal.SnapshotFileName":       "recovery tests name the snapshot files they damage; safety tests are not a simplicity target",
}

// surfaceRoots are the directories whose non-test code counts as a
// production caller; the rule is applied to what internal/ exports.
var surfaceRoots = []string{"internal", "cmd", "examples", "bench/ucadbench"}

const rootModule = "github.com/ucad/ucad"

// TestExportedSurfaceIsExercised type-checks every package of the module
// and of bench/ucadbench (non-test files only) and fails on an exported
// function, method, type, struct field, variable or constant under
// internal/ that no such code references, unless it implements an
// interface method that code calls through or is on surfaceAllow. It
// also fails on an exported field of an exported struct that such code
// reads but never writes (fieldWrites says what a write is). No
// capability without a production caller, and no setting without a
// setter: tests alone do not keep code alive.
func TestExportedSurfaceIsExercised(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree and the standard library from source")
	}
	// The source importer would otherwise run cgo for net and os/user.
	defer func(on bool) { build.Default.CgoEnabled = on }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	l := &surfaceLoader{
		fset:  token.NewFileSet(),
		std:   importer.ForCompiler(token.NewFileSet(), "source", nil),
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
		files: map[string][]*ast.File{},
	}
	for _, root := range surfaceRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			_, err = l.Import(rootModule + "/" + filepath.ToSlash(path))
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// A reference counts unless it sits inside the declaration of the
	// thing it names (a type's methods are part of its declaration): a
	// recursive call or a receiver does not keep anything alive.
	used, written := map[types.Object]bool{}, map[types.Object]bool{}
	ifaces := []*types.Interface{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		unwrapper(), // errors.Is/As call it through an unnamed interface
	}
	for path, info := range l.infos {
		for _, f := range l.files[path] {
			fieldWrites(f, info, written)
			for _, decl := range f.Decls {
				for node, owners := range declOwners(decl, info) {
					ast.Inspect(node, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if obj := origin(info.Uses[id]); obj != nil && !owners[obj] {
								used[obj] = true
							}
						}
						return true
					})
				}
			}
		}
		for _, imp := range l.pkgs[path].Imports() {
			if strings.HasPrefix(imp.Path(), rootModule+"/") {
				continue
			}
			for _, n := range imp.Scope().Names() {
				if it, ok := imp.Scope().Lookup(n).Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}

	// reached reports whether m, a method of named type T nothing calls
	// directly, is the implementation of an interface method production
	// code can call through: an interface declared in this module must
	// have that method called somewhere; a foreign one (error,
	// fmt.Stringer, http.Handler, sort.Interface, ...) is called by the
	// library that declares it.
	reached := func(T *types.Named, m *types.Func) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				if im.Name() != m.Name() {
					continue
				}
				if !types.Implements(T, it) && !types.Implements(types.NewPointer(T), it) {
					continue
				}
				if im.Pkg() == nil || !strings.HasPrefix(im.Pkg().Path(), rootModule) || used[origin(im)] {
					return true
				}
			}
		}
		return false
	}

	var dead []string
	seen := map[string]bool{}
	// check reports obj unless it is exercised; why, when set, says how
	// it falls short of that.
	check := func(obj types.Object, name, why string) {
		if !obj.Exported() {
			return
		}
		name = strings.TrimPrefix(obj.Pkg().Path(), rootModule+"/") + "." + name
		_, allowed := surfaceAllow[name]
		seen[name] = true
		switch {
		case why == "" && allowed:
			dead = append(dead, fmt.Sprintf("%s: %s is on the allow-list but production code exercises it: drop the entry",
				l.fset.Position(obj.Pos()), name))
		case why != "" && !allowed:
			dead = append(dead, fmt.Sprintf("%s: %s%s", l.fset.Position(obj.Pos()), name, why))
		}
	}
	unused := func(ok bool) string {
		if ok {
			return ""
		}
		return " is not referenced"
	}
	for path, pkg := range l.pkgs {
		if !strings.HasPrefix(path, rootModule+"/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			check(obj, n, unused(used[obj]))
			tn, isType := obj.(*types.TypeName)
			if !isType || tn.IsAlias() {
				continue
			}
			named, isNamed := tn.Type().(*types.Named)
			if !isNamed {
				continue
			}
			if st, ok := named.Underlying().(*types.Struct); ok && obj.Exported() {
				for i := 0; i < st.NumFields(); i++ {
					// An embedded field is reached through what it promotes.
					// A field is a setting only if something sets it.
					f := st.Field(i)
					switch {
					case f.Embedded():
					case used[f] && !written[f]:
						check(f, n+"."+f.Name(), " is read but production code never writes it")
					default:
						check(f, n+"."+f.Name(), unused(used[f]))
					}
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				recv := n
				if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					recv = "(*" + n + ")"
				}
				check(m, recv+"."+m.Name(), unused(used[m] || reached(named, m)))
			}
		}
	}
	for name := range surfaceAllow {
		if !seen[name] {
			dead = append(dead, "allow-list entry names nothing: "+name)
		}
	}
	if len(surfaceAllow) > 16 {
		t.Errorf("allow-list has %d entries; the budget is 16", len(surfaceAllow))
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
}

// TestFieldWritesSelfTest holds the write detector to one example of
// each kind of write, so a detector that stopped seeing writes cannot
// pass the gate by reporting nothing.
func TestFieldWritesSelfTest(t *testing.T) {
	const src = `package p

type Outer struct {
	Keyed, Addressed, ReadOnly int
	Inner                Inner
}

type Inner struct{ Bumped int }

func f() int {
	o := Outer{Keyed: 1}
	o.Inner.Bumped++
	p := &o.Addressed
	*p = 2
	return o.ReadOnly
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	written := map[types.Object]bool{}
	fieldWrites(f, info, written)
	var unwritten []string
	for _, typ := range []string{"Outer", "Inner"} {
		st := pkg.Scope().Lookup(typ).Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if !written[st.Field(i)] {
				unwritten = append(unwritten, typ+"."+st.Field(i).Name())
			}
		}
	}
	if fmt.Sprint(unwritten) != "[Outer.ReadOnly]" {
		t.Errorf("unwritten fields = %v, want [Outer.ReadOnly]", unwritten)
	}
}

// declOwners splits a top-level declaration into the nodes to scan for
// references, each with the objects that node declares.
func declOwners(decl ast.Decl, info *types.Info) map[ast.Node]map[types.Object]bool {
	out := map[ast.Node]map[types.Object]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		owners := map[types.Object]bool{info.Defs[d.Name]: true}
		if fn, ok := info.Defs[d.Name].(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				t := recv.Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if named, ok := t.(*types.Named); ok {
					owners[named.Obj()] = true
				}
			}
		}
		out[d] = owners
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			owners := map[types.Object]bool{}
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				owners[info.Defs[sp.Name]] = true
			case *ast.ValueSpec:
				for _, name := range sp.Names {
					owners[info.Defs[name]] = true
				}
			}
			out[spec] = owners
		}
	}
	return out
}

// fieldWrites marks in written every struct field node writes: an
// element of a keyed or positional composite literal, or a field on the
// selector chain of an assignment's left side, a ++/-- operand or a &
// operand (a.B.C++ writes both B and C).
func fieldWrites(node ast.Node, info *types.Info, written map[types.Object]bool) {
	chain := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
					written[origin(v)] = true
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					written[origin(info.Uses[kv.Key.(*ast.Ident)])] = true
				} else {
					written[origin(st.Field(i))] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				chain(lhs)
			}
		case *ast.IncDecStmt:
			chain(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				chain(n.X)
			}
		}
		return true
	})
}

// unwrapper is interface{ Unwrap() error }.
func unwrapper() *types.Interface {
	errT := types.Universe.Lookup("error").Type()
	sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errT)), false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", sig)}, nil).Complete()
}

// origin maps a method or field of an instantiated generic type back to
// its declaration, the object the package scope hands out.
func origin(obj types.Object) types.Object {
	if obj == nil {
		return nil
	}
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// surfaceLoader type-checks the module's own packages from their
// directories, sharing one object identity across importers, and hands
// everything else to the standard library's source importer.
type surfaceLoader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
	files map[string][]*ast.File
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, rootModule+"/") {
		return l.std.Import(path)
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.FromSlash(strings.TrimPrefix(path, rootModule+"/"))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	l.pkgs[path], l.infos[path], l.files[path] = pkg, info, files
	return pkg, nil
}
