package robotack_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const (
	modulePath      = "github.com/robotack/robotack"
	benchModulePath = modulePath + "/bench"
	obsPath         = modulePath + "/internal/obs"
)

// testSeams are the declarations under internal/ that only tests
// reference and that stay, each with the reason it stays. The
// declaration's doc comment carries the same sentence.
var testSeams = map[string]string{
	"sensor.Image.At":              "Test seam: the sensor, detect, core and experiment tests read pixels through it.",
	"sensor.Image.Set":             "Test seam: the sensor and detect tests draw single pixels with it.",
	"sensor.Image.Clone":           "Test seam: TestImageClone and the detect and experiment tests copy frames with it.",
	"runq.WithCompactionThreshold": "Test seam: TestJournalCompactionReplayEquivalent compacts a small journal with it.",
	"campaignd.WithExecutor":       "Test seam: the campaignd queue tests run jobs on stub executors through it.",
	"trace.WithSegmentBytes":       "Test seam: TestFileSinkRingCap rolls small segments with it.",
	"segstore.WithSegmentBytes":    "Test seam: the multi-segment segstore tests and benchmarks roll small segments with it.",
	"segstore.Store.OpenStats":     "Test seam: TestOpenReadsIndexesNotRecords checks what an open read through it.",
	"trace.CollectSink":            "Test seam: the trace, campaignd and frame-step tests collect spans in it.",
	"trace.CollectSink.Spans":      "Test seam: the tests that collect spans read them back through it.",
}

// defaultOnlyFields are the exported config fields that only their own
// package's Default functions set and that stay fields, each with the
// reason it stays. The field's doc comment carries the same sentence.
var defaultOnlyFields = map[string]string{
	"fusion.Config.Confident":            "Kept a field: Planner.Plan reads it from the fusion.Config that the bench passes in.",
	"planner.SafetyConfig.ComfortDecel":  "Kept a field: the bench holds a SafetyConfig and calls its methods.",
	"planner.SafetyConfig.ReactionTime":  "Kept a field: the bench holds a SafetyConfig and calls its methods.",
	"planner.SafetyConfig.MaxDSafe":      "Kept a field: the bench reads it.",
	"planner.SafetyConfig.AccidentDelta": "Kept a field: the bench reads it.",
	"detect.Config.Threshold":            "Kept a field: TestComponentsMatchReference and FuzzComponents run the detector at other thresholds.",
	"detect.Config.MinArea":              "Kept a field: TestComponentsMatchReference and FuzzComponents run the detector at other minimum areas.",
}

// TestNoDefaultOnlyConfig fails on tuning that nothing varies: an
// exported field without a struct tag of a struct type under internal/
// whose name ends in Config, when every write of it in the non-test
// files of the root and bench modules, if there is any, sits in a
// function of the field's own package whose name contains Default. A
// write is a keyed or positional composite-literal element, an
// assignment, an increment or decrement, or taking the address, of the
// field or of anything reached through it. A write of the enclosing
// function's own parameter is the caller's write, so a Default
// constructor that only passes a value through does not count. Such a
// field is a constant in disguise; a field in defaultOnlyFields is
// exempt and must say why in its doc.
func TestNoDefaultOnlyConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	l := newLoader()
	if err := l.addModule(".", modulePath, "bench"); err != nil {
		t.Fatal(err)
	}
	if err := l.addModule("bench", benchModulePath, ""); err != nil {
		t.Fatal(err)
	}
	type field struct {
		name string
		id   *ast.Ident
		doc  *ast.CommentGroup
	}
	fields := map[*types.Var]*field{}
	for _, path := range l.order {
		pkg, err := l.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		for _, f := range l.files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !strings.HasSuffix(ts.Name.Name, "Config") {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fd := range st.Fields.List {
					if fd.Tag != nil {
						continue
					}
					for _, id := range fd.Names {
						if id.IsExported() {
							v := l.info.Defs[id].(*types.Var)
							fields[v] = &field{pkg.Name() + "." + ts.Name.Name + "." + id.Name, id, fd.Doc}
						}
					}
				}
				return true
			})
		}
	}

	// varied holds the fields that some write outside their package's
	// Default functions sets.
	varied := map[*types.Var]bool{}
	for _, path := range l.order {
		for _, f := range l.files[path] {
			for _, decl := range f.Decls {
				// inDefault marks a function whose name contains
				// Default; params holds its parameters.
				inDefault, params := false, map[types.Object]bool{}
				if fd, ok := decl.(*ast.FuncDecl); ok && strings.Contains(fd.Name.Name, "Default") {
					inDefault = true
					for _, p := range fd.Type.Params.List {
						for _, id := range p.Names {
							params[l.info.Defs[id]] = true
						}
					}
				}
				// record notes a write of field fv with value v (nil
				// when the write has none).
				record := func(fv *types.Var, v ast.Expr) {
					fv = fv.Origin()
					own := inDefault && fv.Pkg().Path() == path
					if id, ok := v.(*ast.Ident); ok && params[l.info.Uses[id]] {
						own = false
					}
					if !own {
						varied[fv] = true
					}
				}
				// write records a write of every field along the
				// selector path x.
				write := func(x, v ast.Expr) {
					for {
						sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
						if !ok {
							return
						}
						if fv, ok := l.info.Uses[sel.Sel].(*types.Var); ok && fv.IsField() {
							record(fv, v)
						}
						x = sel.X
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for i, lhs := range n.Lhs {
							var v ast.Expr
							if len(n.Rhs) == len(n.Lhs) {
								v = n.Rhs[i]
							}
							write(lhs, v)
						}
					case *ast.IncDecStmt:
						write(n.X, nil)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							write(n.X, nil)
						}
					case *ast.CompositeLit:
						t := l.info.Types[n].Type
						if p, ok := t.(*types.Pointer); ok {
							t = p.Elem()
						}
						st, ok := t.Underlying().(*types.Struct)
						if !ok {
							return true
						}
						for i, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								record(l.info.Uses[kv.Key.(*ast.Ident)].(*types.Var), kv.Value)
							} else {
								record(st.Field(i), el)
							}
						}
					}
					return true
				})
			}
		}
	}

	var problems []string
	kept := map[string]bool{}
	for v, fd := range fields {
		if varied[v] {
			continue
		}
		if reason, ok := defaultOnlyFields[fd.name]; ok {
			kept[fd.name] = true
			if !strings.Contains(strings.Join(strings.Fields(fd.doc.Text()), " "), reason) {
				problems = append(problems, fmt.Sprintf("%s: %s: doc comment lacks its reason %q", l.pos(fd.id), fd.name, reason))
			}
			continue
		}
		problems = append(problems, fmt.Sprintf("%s: nothing but its package's Default functions sets %s", l.pos(fd.id), fd.name))
	}
	for name := range defaultOnlyFields {
		if !kept[name] {
			problems = append(problems, fmt.Sprintf("defaultOnlyFields: %s is not a field only Default functions set", name))
		}
	}
	slices.Sort(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// TestNoTestOnlyCode type-checks every non-test file of the root module
// and of the bench module, as go/build selects them for this host, and
// fails on any package-level function, method or type under internal/
// that none of them references. A reference from inside the
// declaration itself (a recursive call, a method's receiver) does not
// count, and neither does a compile-time interface assertion,
// var _ I = (*T)(nil). A method is exempt when its receiver implements
// an interface of the program, or a standard one, that has a method of
// its name; a declaration in testSeams is exempt and must say why in
// its doc.
//
// The same pass holds metrics write-only: outside internal/obs no code
// reads a counter, gauge or registry, only package main serves
// obs.Handler, and internal/obs imports nothing of this module but
// internal/obs/trace. A metric's value can reach a scrape or an FTDC
// file, never a record.
func TestNoTestOnlyCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	l := newLoader()
	if err := l.addModule(".", modulePath, "bench"); err != nil {
		t.Fatal(err)
	}
	if err := l.addModule("bench", benchModulePath, ""); err != nil {
		t.Fatal(err)
	}
	var roots []*types.Package
	for _, path := range l.order {
		pkg, err := l.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, pkg)
	}

	obs := l.pkgs[obsPath]
	reads := map[types.Object]string{}
	for _, m := range [][2]string{{"Counter", "Value"}, {"Gauge", "Value"}, {"Registry", "Gather"}, {"Registry", "WritePrometheus"}} {
		obj, _, _ := types.LookupFieldOrMethod(obs.Scope().Lookup(m[0]).Type(), true, obs, m[1])
		reads[obj] = "obs." + m[0] + "." + m[1]
	}
	handler := obs.Scope().Lookup("Handler")

	var problems []string
	used := map[types.Object]bool{}
	for _, pkg := range roots {
		for _, f := range l.files[pkg.Path()] {
			l.eachUse(f, func(id *ast.Ident, obj types.Object) {
				used[obj] = true
				if name, ok := reads[obj]; ok && pkg != obs {
					problems = append(problems, fmt.Sprintf("%s: %s reads a metric outside internal/obs", l.pos(id), name))
				}
				if obj == handler && pkg.Name() != "main" {
					problems = append(problems, fmt.Sprintf("%s: obs.Handler served outside package main", l.pos(id)))
				}
			})
		}
	}
	for _, f := range l.files[obsPath] {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if _, own := l.own[path]; own && path != obsPath+"/trace" {
				problems = append(problems, fmt.Sprintf("%s: internal/obs imports %s", l.pos(imp), path))
			}
		}
	}

	ifaces := l.interfaces()
	seams := map[string]bool{}
	for _, pkg := range roots {
		if !strings.HasPrefix(pkg.Path(), modulePath+"/internal/") {
			continue
		}
		for _, f := range l.files[pkg.Path()] {
			for _, d := range declarations(f) {
				obj := l.info.Defs[d.name]
				if used[obj] || d.name.Name == "init" || d.name.Name == "_" {
					continue
				}
				name := pkg.Name() + "." + d.name.Name
				if fn, ok := obj.(*types.Func); ok {
					if recv := receiver(fn); recv != nil {
						if implemented(recv, fn.Name(), ifaces) {
							continue
						}
						name = pkg.Name() + "." + recv.Obj().Name() + "." + fn.Name()
					}
				}
				if reason, ok := testSeams[name]; ok {
					seams[name] = true
					if !strings.Contains(strings.Join(strings.Fields(d.doc.Text()), " "), reason) {
						problems = append(problems, fmt.Sprintf("%s: %s: doc comment lacks its test-seam reason %q", l.pos(d.name), name, reason))
					}
					continue
				}
				problems = append(problems, fmt.Sprintf("%s: %s has no non-test reference", l.pos(d.name), name))
			}
		}
	}
	for name := range testSeams {
		if !seams[name] {
			problems = append(problems, fmt.Sprintf("testSeams: %s is not a test-only declaration", name))
		}
	}
	slices.Sort(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// loader type-checks the module's packages with full type information
// and the standard library's from source without function bodies.
type loader struct {
	ctxt  build.Context
	fset  *token.FileSet
	own   map[string]*build.Package // the modules' packages by import path
	order []string                  // their import paths in walk order
	pkgs  map[string]*types.Package
	files map[string][]*ast.File // the modules' non-test files
	info  *types.Info
}

func newLoader() *loader {
	ctxt := build.Default
	// Without cgo, net and os/user type-check from their pure-Go files
	// and no cgo tool runs; the module itself has no cgo files.
	ctxt.CgoEnabled = false
	return &loader{
		ctxt:  ctxt,
		fset:  token.NewFileSet(),
		own:   map[string]*build.Package{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
}

// addModule records every package directory under root as prefix plus
// its relative path, skipping testdata, hidden directories, the nested
// module skip names, and internal/results/storetest, which is test code
// in a non-test file: only _test.go files import it.
func (l *loader) addModule(root, prefix, skip string) error {
	return filepath.WalkDir(root, func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		base := e.Name()
		if dir != root && (base == "testdata" || strings.HasPrefix(base, ".") || dir == skip ||
			dir == filepath.FromSlash("internal/results/storetest")) {
			return filepath.SkipDir
		}
		bp, err := l.ctxt.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok || (err == nil && len(bp.GoFiles) == 0) {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := prefix
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		l.own[path] = bp
		l.order = append(l.order, path)
		return nil
	})
}

func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

func (l *loader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	l.pkgs[path] = nil
	bp, own := l.own[path]
	if !own {
		var err error
		if bp, err = l.ctxt.Import(path, srcDir, 0); err != nil {
			return nil, err
		}
	}
	mode := parser.SkipObjectResolution
	if own {
		mode |= parser.ParseComments
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l, IgnoreFuncBodies: !own, Sizes: types.SizesFor("gc", l.ctxt.GOARCH)}
	var info *types.Info
	if own {
		info = l.info
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	l.pkgs[path] = pkg
	if own {
		l.files[path] = files
	}
	return pkg, nil
}

func (l *loader) pos(n ast.Node) string {
	p := l.fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", filepath.ToSlash(p.Filename), p.Line)
}

// eachUse calls fn for every identifier in f that refers to an object,
// with generic instantiations mapped to their origin, except where the
// identifier lies inside the declaration of that same object or in a
// method's receiver.
func (l *loader) eachUse(f *ast.File, fn func(*ast.Ident, types.Object)) {
	walk := func(n ast.Node, self types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := l.info.Uses[id]
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if obj != nil && obj != self {
				fn(id, obj)
			}
			return true
		})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			self := l.info.Defs[d.Name]
			walk(d.Type, self)
			if d.Body != nil {
				walk(d.Body, self)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				var self types.Object
				switch s := spec.(type) {
				case *ast.TypeSpec:
					self = l.info.Defs[s.Name]
				case *ast.ValueSpec:
					if l.assertion(s) {
						continue
					}
				}
				walk(spec, self)
			}
		}
	}
}

// assertion reports whether s declares only blank variables of an
// interface type, as a compile-time check like var _ I = (*T)(nil)
// does. Such a check references neither I nor T.
func (l *loader) assertion(s *ast.ValueSpec) bool {
	if s.Type == nil {
		return false
	}
	for _, name := range s.Names {
		if name.Name != "_" {
			return false
		}
	}
	return types.IsInterface(l.info.Types[s.Type].Type)
}

// interfaces returns every interface with methods that the module
// packages name or spell out, plus the standard ones whose methods the
// standard library calls.
func (l *loader) interfaces() []*types.Interface {
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	for _, tv := range l.info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, std := range [][2]string{
		{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
		{"net/http", "Handler"}, {"io", "Closer"}, {"sort", "Interface"},
	} {
		pkg, err := l.Import(std[0])
		if err != nil {
			panic(err)
		}
		add(pkg.Scope().Lookup(std[1]).Type())
	}
	return out
}

// receiver returns the named type of a method's receiver, or nil for a
// function.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// implemented reports whether the type or its pointer implements one of
// ifaces that has a method called name.
func implemented(recv *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name &&
				(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
	}
	return false
}

type declaration struct {
	name *ast.Ident
	doc  *ast.CommentGroup
}

// declarations lists f's package-level functions, methods and types.
func declarations(f *ast.File) []declaration {
	var out []declaration
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			out = append(out, declaration{d.Name, d.Doc})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					doc := ts.Doc
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					out = append(out, declaration{ts.Name, doc})
				}
			}
		}
	}
	return out
}
