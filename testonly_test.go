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
	"trace.WithSampleEvery":        "Test seam: TestFrameStepZeroAllocs and TestCampaignTracesInert set the sampling rate with it.",
	"trace.WithSegmentBytes":       "Test seam: TestFileSinkRingCap rolls small segments with it.",
	"segstore.WithSegmentBytes":    "Test seam: the multi-segment segstore tests and benchmarks roll small segments with it.",
	"segstore.Store.OpenStats":     "Test seam: TestOpenReadsIndexesNotRecords checks what an open read through it.",
	"trace.CollectSink":            "Test seam: the trace, campaignd and frame-step tests collect spans in it.",
	"trace.CollectSink.Spans":      "Test seam: the tests that collect spans read them back through it.",
}

// TestNoTestOnlyCode type-checks every non-test file of the root module
// and of the bench module, as go/build selects them for this host, and
// fails on any package-level function, method or type under internal/
// that none of them references. A reference from inside the
// declaration itself (a recursive call, a method's receiver) does not
// count. A method is exempt when its receiver implements an interface
// of the program, or a standard one, that has a method of its name; a
// declaration in testSeams is exempt and must say why in its doc.
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
				if ts, ok := spec.(*ast.TypeSpec); ok {
					self = l.info.Defs[ts.Name]
				}
				walk(spec, self)
			}
		}
	}
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
