package xmlproj

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

// TestEveryNameIsReached holds the product to what its commands run. It
// type-checks every non-test Go file of the repository, benchmark/
// included, under this platform's build constraints, and walks the
// references between package-level declarations from the main functions
// of the commands (cmd/, examples/, benchmark/) and every init function.
// A method is also reached when its receiver type is reached and an
// interface of the repository, or of a standard-library package it
// imports, declares a method of that name: the call may go through the
// interface. Every function, method, type,
// variable or constant the walk does not reach is reported, with where it
// is declared; each is to be deleted, moved into the tests that use it,
// or given a caller. A package whose "Defended by:" line says "test
// oracle" is exempt: only tests import it.
func TestEveryNameIsReached(t *testing.T) {
	r := &reachability{
		fset:  token.NewFileSet(),
		dirs:  map[string]string{},
		pkgs:  map[string]*reachPkg{},
		decls: map[types.Object]*reachDecl{},
	}
	r.std = importer.ForCompiler(r.fset, "source", nil)
	if err := r.load("."); err != nil {
		t.Fatal(err)
	}
	roots := r.inits
	var commands int
	for _, p := range r.pkgs {
		if isCommandDir(p.dir) && p.types.Name() == "main" {
			commands++
			roots = append(roots, p.types.Scope().Lookup("main"))
		}
	}
	if commands == 0 {
		t.Fatal("no command found under cmd/, examples/ or benchmark/")
	}
	reached := r.walk(roots)

	var unreached []string
	allowed := map[string]bool{}
	for obj, d := range r.decls {
		if reached[obj] || d.pkg.oracle {
			continue
		}
		name := qualifiedName(obj)
		if _, ok := unreachedAllowed[name]; ok {
			allowed[name] = true
			continue
		}
		pos := r.fset.Position(obj.Pos())
		unreached = append(unreached, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, name))
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d names that no command reaches (delete each, move it into the tests that use it, or give it a caller):\n%s",
			len(unreached), strings.Join(unreached, "\n"))
	}
	for name := range unreachedAllowed {
		if !allowed[name] {
			t.Errorf("%s is allowed to be unreached but is reached or gone: drop it from unreachedAllowed", name)
		}
	}
	t.Logf("%d of %d package-level names in %d packages reached from %d commands",
		len(reached), len(r.decls), len(r.pkgs), commands)
}

// unreachedAllowed names what the walk flags and may stay, each with its
// reason.
var unreachedAllowed = map[string]string{
	"xmlproj/benchmark.fileSource.InputSize": "benchmark/ changes only together with its recorded baselines (ROADMAP 15)",
	"xmlproj/benchmark.span.ms":              "benchmark/ changes only together with its recorded baselines (ROADMAP 15)",
}

// reachability is the repository's non-test code, type-checked, with the
// package-level declarations each declaration refers to.
type reachability struct {
	fset   *token.FileSet
	std    types.Importer
	dirs   map[string]string // import path → directory
	pkgs   map[string]*reachPkg
	decls  map[types.Object]*reachDecl
	inits  []types.Object
	ifaces map[string]bool // every method name an interface declares
}

type reachPkg struct {
	dir     string
	files   []*ast.File
	types   *types.Package
	info    *types.Info
	oracle  bool // its "Defended by:" line says "test oracle"
	methods map[*types.TypeName][]*types.Func
}

type reachDecl struct {
	pkg  *reachPkg
	uses []types.Object
}

// load finds every package under root and type-checks it. Import paths
// are the directory below root with the module path, xmlproj, in front:
// benchmark/'s module is xmlproj/benchmark, so one rule names both.
func (r *reachability) load(root string) error {
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if !d.IsDir() {
			return nil
		}
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := "xmlproj"
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		r.dirs[importPath] = path
		return nil
	})
	if err != nil {
		return err
	}
	for path := range r.dirs {
		if _, err := r.Import(path); err != nil {
			var none *build.NoGoError
			if errors.As(err, &none) {
				continue
			}
			return err
		}
	}
	r.ifaces = map[string]bool{"Error": true} // the predeclared error
	for _, p := range r.pkgs {
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				r.addMethodNames(it)
			}
		}
		for _, imp := range p.types.Imports() {
			if _, ok := r.pkgs[imp.Path()]; !ok {
				r.addInterfaces(imp)
			}
		}
	}
	return nil
}

// Import makes reachability the type checker's importer: a package of
// the repository is parsed and checked here, any other comes from the
// standard library's source.
func (r *reachability) Import(path string) (*types.Package, error) {
	if p, ok := r.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p.types, nil
	}
	dir, ok := r.dirs[path]
	if !ok {
		return r.std.Import(path)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	r.pkgs[path] = nil
	p := &reachPkg{dir: dir, methods: map[*types.TypeName][]*types.Func{}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(r.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if f.Doc != nil && strings.Contains(f.Doc.Text(), "Defended by: test oracle") {
			p.oracle = true
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: r}
	if p.types, err = conf.Check(path, r.fset, p.files, p.info); err != nil {
		return nil, err
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			r.declare(p, decl)
		}
	}
	r.pkgs[path] = p
	return p.types, nil
}

// declare records each package-level name decl declares, with the names
// it refers to.
func (r *reachability) declare(p *reachPkg, decl ast.Decl) {
	add := func(id *ast.Ident, node ast.Node) {
		obj := p.info.Defs[id]
		if obj == nil || obj.Name() == "_" {
			return
		}
		r.decls[obj] = &reachDecl{pkg: p, uses: r.uses(p, node)}
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		add(d.Name, d)
		fn := p.info.Defs[d.Name].(*types.Func)
		if d.Recv == nil {
			if d.Name.Name == "init" {
				r.inits = append(r.inits, fn)
			}
			return
		}
		if recv := receiverName(fn); recv != nil {
			p.methods[recv] = append(p.methods[recv], fn)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				add(s.Name, s)
			case *ast.ValueSpec:
				for _, id := range s.Names {
					add(id, s)
				}
			}
		}
	}
}

// uses lists the objects the identifiers under node refer to, a generic
// function or method instance as its origin.
func (r *reachability) uses(p *reachPkg, node ast.Node) []types.Object {
	var objs []types.Object
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.info.Uses[id]; obj != nil {
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				objs = append(objs, obj)
			}
		}
		return true
	})
	return objs
}

// addInterfaces adds the method names of every interface a package of
// the standard library declares at package level.
func (r *reachability) addInterfaces(pkg *types.Package) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				r.addMethodNames(it)
			}
		}
	}
}

func (r *reachability) addMethodNames(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		r.ifaces[it.Method(i).Name()] = true
	}
}

// walk returns every declaration reachable from roots.
func (r *reachability) walk(roots []types.Object) map[types.Object]bool {
	reached := map[types.Object]bool{}
	queue := append([]types.Object(nil), roots...)
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		d, ok := r.decls[obj]
		if !ok || reached[obj] {
			continue
		}
		reached[obj] = true
		queue = append(queue, d.uses...)
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range d.pkg.methods[tn] {
				if r.ifaces[m.Name()] {
					queue = append(queue, m)
				}
			}
		}
	}
	return reached
}

func isCommandDir(dir string) bool {
	top := strings.SplitN(filepath.ToSlash(dir), "/", 2)[0]
	return top == "cmd" || top == "examples" || top == "benchmark"
}

// receiverName is the named type a method is declared on.
func receiverName(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// qualifiedName spells obj as pkg.Name or pkg.Type.Method.
func qualifiedName(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := receiverName(fn); recv != nil {
			name = recv.Name() + "." + name
		}
	}
	return obj.Pkg().Path() + "." + name
}
