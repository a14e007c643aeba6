package repro

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

// unreachedAllowed lists the functions under internal/ that no non-test
// file reaches but that stay in production code, each with its reason.
// Every one is read by tests in another package, so it cannot move into
// its own package's _test.go files.
var unreachedAllowed = map[string]string{
	"logic.TableFromExpr":       "the truth-table oracle of the BDD kernel and of recognize's TestOutputFlagsMatchTruthTables",
	"netlist.Circuit.AddCap":    "adds wire load to hand-built circuits in the checks and hier tests",
	"netlist.ParseFile":         "reads example decks in the cmd/fcv, checks, recognize and switchsim tests",
	"obs.Collector.Counter":     "reads one counter back in the fleet, rtl and switchsim tests",
	"obs.MaskMetricsValues":     "masks /metrics values for serve's golden shape test",
	"obs.Manifest.StageTotalMS": "sums a stage's spans in cmd/fcv's manifest tests",
	"obs.ValidateMetricsText":   "the /metrics exposition oracle of the serve tests and FuzzValidateMetricsText",
	"rtl.PackedSim.SetAll":      "broadcasts one input to every lane in the rtl and shadow lane tests",
	"rtl.PackedSim.SetPlanes":   "drives per-lane inputs in the rtl and shadow lane tests",
	"rtl.Sim.Cycles":            "reads the cycle count in the rtl and shadow tests",
	"rtl.Sim.GetMem":            "reads memory words in the designs and rtl tests",
	"rtl.Sim.Phase":             "reads the clock phase in the rtl and shadow tests",
	"timing.SinglePhase":        "the one-phase clock of the core and timing tests",
}

// TestEveryInternalFunctionIsReached fails on any function or method
// declared in a non-test file under internal/ that no non-test file of
// the repository (the root module, perfbench and examples) uses, unless
// unreachedAllowed names it. A method also counts as reached when it
// makes its receiver satisfy an interface type that the program mentions
// or that an imported package declares, since a call through that
// interface reaches it. No production file imports reflect or a template
// package, so nothing calls a method by name at run time.
func TestEveryInternalFunctionIsReached(t *testing.T) {
	// The standard library is type-checked from source. With cgo off,
	// packages such as net and os/user use their pure-Go files, so the
	// check runs no C toolchain.
	saved := build.Default
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default = saved })

	prog, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	reached := prog.reached()

	var unreached []string
	seen := map[string]bool{}
	for _, d := range prog.decls {
		seen[d.name] = true
		_, allowed := unreachedAllowed[d.name]
		switch {
		case reached[d.fn] && allowed:
			unreached = append(unreached, fmt.Sprintf("%s: %s is reached; drop it from unreachedAllowed", d.pos, d.name))
		case !reached[d.fn] && !allowed:
			unreached = append(unreached, fmt.Sprintf("%s: %s", d.pos, d.name))
		}
	}
	for name := range unreachedAllowed {
		if !seen[name] {
			unreached = append(unreached, fmt.Sprintf("reach_test.go: %s is gone; drop it from unreachedAllowed", name))
		}
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d function(s) under internal/ that no front door reaches; delete each, move it into a _test.go file, or allow it with a reason:\n%s",
			len(unreached), strings.Join(unreached, "\n"))
	}
}

// program is every non-test package of the repository, type-checked
// into one types.Info.
type program struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package // by import path
	files []*ast.File
	decls []decl
}

// decl is one function or method declared under internal/.
type decl struct {
	fn   *types.Func
	name string // pkg.Func or pkg.Type.Method
	pos  string // file:line
}

// loadProgram type-checks every directory under root that holds non-test
// Go files for the default build context, skipping testdata and dot
// directories as the go tool does. Import paths under "repro/" map onto
// directories under root; perfbench, a nested module, is "repro/perfbench".
func loadProgram(root string) (*program, error) {
	p := &program{
		root: root,
		fset: token.NewFileSet(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		pkgs: map[string]*types.Package{},
	}
	p.std = importer.ForCompiler(p.fset, "source", nil)
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		if _, err := p.load(dir); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				continue
			}
			return nil, err
		}
	}
	return p, nil
}

// Import resolves the repository's own packages from source and hands
// every other path to the standard-library importer.
func (p *program) Import(path string) (*types.Package, error) {
	if path == "repro" || strings.HasPrefix(path, "repro/") {
		return p.load(filepath.Join(p.root, strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/")))
	}
	return p.std.Import(path)
}

// load parses and type-checks the non-test files of one directory once.
func (p *program) load(dir string) (*types.Package, error) {
	rel, err := filepath.Rel(p.root, dir)
	if err != nil {
		return nil, err
	}
	path := "repro"
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	if pkg, ok := p.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p.pkgs[path] = nil
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(path, p.fset, files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkgs[path] = pkg
	p.files = append(p.files, files...)
	if under, ok := strings.CutPrefix(path, "repro/internal/"); ok {
		p.declare(under, files)
	}
	return pkg, nil
}

// declare records every function and method of one internal package.
func (p *program) declare(pkgPath string, files []*ast.File) {
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			name := pkgPath + "." + fd.Name.Name
			if fd.Recv != nil {
				name = pkgPath + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			pos := p.fset.Position(fd.Pos())
			rel, err := filepath.Rel(p.root, pos.Filename)
			if err != nil {
				rel = pos.Filename
			}
			p.decls = append(p.decls, decl{
				fn:   p.info.Defs[fd.Name].(*types.Func),
				name: name,
				pos:  fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line),
			})
		}
	}
}

// recvName is a receiver's base type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// reached is the set of functions that a non-test file uses outside the
// function's own body, plus the methods that satisfy an interface.
func (p *program) reached() map[*types.Func]bool {
	reached := map[*types.Func]bool{}
	for _, f := range p.files {
		for _, d := range f.Decls {
			var self types.Object
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = p.info.Defs[fd.Name]
			}
			ast.Inspect(d, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if fn, ok := p.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
					reached[fn.Origin()] = true
				}
				return true
			})
		}
	}
	for _, fn := range p.interfaceMethods() {
		reached[fn] = true
	}
	return reached
}

// interfaceMethods returns, for every named type of the repository and
// every interface it satisfies (directly or through its pointer), the
// methods that implement that interface's methods. The interfaces are
// those the program mentions plus the named ones that an imported
// package declares.
func (p *program) interfaceMethods() []*types.Func {
	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	add := func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			ifaces = append(ifaces, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, tv := range p.info.Types {
		add(tv.Type)
	}
	var named []*types.Named
	for _, pkg := range p.pkgs {
		for _, imp := range pkg.Imports() {
			if _, ours := p.pkgs[imp.Path()]; ours {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && !tn.IsAlias() {
					add(tn.Type())
				}
			}
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				named = append(named, n)
			}
		}
	}
	var out []*types.Func
	for _, n := range named {
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok {
					out = append(out, fn.Origin())
				}
			}
		}
	}
	return out
}
