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
// production code references and that stay anyway: one line, one reason.
// An entry that is gone, or that production code has started to call,
// fails the gate just like an unlisted dead identifier does.
var surfaceAllow = map[string]string{
	"internal/obs.(*Histogram).Count":     "read-only seam: tests assert an observation landed",
	"internal/obs.(*Histogram).Sum":       "read-only seam: tests assert the observed total",
	"internal/obs.(*Histogram).Snapshot":  "read-only seam: tests read bucket counts without parsing the exposition",
	"internal/scorecache.(*Cache).Cap":    "read-only seam: tests assert the configured capacity was applied",
	"internal/scorecache.(*Cache).Shards": "read-only seam: tests assert the shard count rounding",
	"internal/scorecache.(*Cache).Len":    "read-only seam: tests assert eviction and purge emptied the cache",
	"internal/minidb.NewAuditWriter":      "TestFeedE2EKillResume tails a live audit file written through it: the fsync-per-record producer of the kill/resume safety test",
	"internal/minidb.(*DB).SetAuditSink":  "as NewAuditWriter: how that test attaches the writer to the engine",
	"internal/preprocess.Deny":            "the deny value of the §5.1 rule enum: Evaluate reaches it as the not-Allow branch, only configuration names it",
	"internal/wal.(*Store).Append":        "the crash-matrix, recovery-table and replayer suites are written in it; safety tests are not a simplicity target",
	"internal/wal.(*Store).Snapshot":      "as Store.Append: the one-call snapshot form the recovery suites use",
	"internal/wal.SnapshotFileName":       "as Store.Append: recovery tests name the snapshot files they damage",
}

// surfaceRoots are the directories whose non-test code counts as a
// production caller; the rule is applied to what internal/ exports.
var surfaceRoots = []string{"internal", "cmd", "examples", "bench/ucadbench"}

const rootModule = "github.com/ucad/ucad"

// TestExportedSurfaceIsExercised type-checks every package of the module
// and of bench/ucadbench (non-test files only) and fails on an exported
// function, method, type, struct field, variable or constant under
// internal/ that no such code references, unless it implements an
// interface method that code calls through or is on surfaceAllow. No
// capability without a production caller: tests alone do not keep code
// alive.
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
	used := map[types.Object]bool{}
	ifaces := []*types.Interface{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		unwrapper(), // errors.Is/As call it through an unnamed interface
	}
	for path, info := range l.infos {
		for _, f := range l.files[path] {
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
	check := func(obj types.Object, name string, ok bool) {
		if !obj.Exported() {
			return
		}
		name = strings.TrimPrefix(obj.Pkg().Path(), rootModule+"/") + "." + name
		_, allowed := surfaceAllow[name]
		seen[name] = true
		switch {
		case ok && allowed:
			dead = append(dead, fmt.Sprintf("%s: %s is on the allow-list but production code references it: drop the entry",
				l.fset.Position(obj.Pos()), name))
		case !ok && !allowed:
			dead = append(dead, fmt.Sprintf("%s: %s", l.fset.Position(obj.Pos()), name))
		}
	}
	for path, pkg := range l.pkgs {
		if !strings.HasPrefix(path, rootModule+"/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			check(obj, n, used[obj])
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
					if f := st.Field(i); !f.Embedded() {
						check(f, n+"."+f.Name(), used[f])
					}
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				recv := n
				if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					recv = "(*" + n + ")"
				}
				check(m, recv+"."+m.Name(), used[m] || reached(named, m))
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
