package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one type-checked module-local package: its syntax, its
// type information, and lazily built indexes used by the analyzers.
type Package struct {
	// Path is the import path the package was loaded under.
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Files are the parsed non-test sources, in file-name order. Test
	// files are deliberately excluded: the invariants guard production
	// prover/verifier code, and test-only dependencies would otherwise
	// have to be type-checked too.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	funcDecls map[types.Object]*ast.FuncDecl
	varInits  map[types.Object]ast.Expr
}

// FuncDecl returns the declaration of a package-level function or method
// defined in this package, or nil.
func (p *Package) FuncDecl(obj types.Object) *ast.FuncDecl {
	if p.funcDecls == nil {
		p.funcDecls = make(map[types.Object]*ast.FuncDecl)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if o := p.Info.Defs[fd.Name]; o != nil {
						p.funcDecls[o] = fd
					}
				}
			}
		}
	}
	return p.funcDecls[obj]
}

// VarInit returns the initializer expression of a package-level var
// declared in this package, or nil (no initializer, or multi-value
// initialization).
func (p *Package) VarInit(obj types.Object) ast.Expr {
	if p.varInits == nil {
		p.varInits = make(map[types.Object]ast.Expr)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) != len(vs.Names) {
						continue
					}
					for i, name := range vs.Names {
						if o := p.Info.Defs[name]; o != nil {
							p.varInits[o] = vs.Values[i]
						}
					}
				}
			}
		}
	}
	return p.varInits[obj]
}

// A Loader parses and type-checks module-local packages from source,
// resolving standard-library imports through the toolchain's export
// data. It is the offline stand-in for go/packages.
type Loader struct {
	Fset *token.FileSet
	// ModulePath and ModuleDir anchor "unizk/..." import resolution.
	ModulePath string
	ModuleDir  string
	// ExtraRoot, when non-empty, is a GOPATH-src-style directory checked
	// before the module mapping: import path P resolves to ExtraRoot/P.
	// The analysistest harness points it at a testdata/src tree.
	ExtraRoot string

	std  types.Importer
	pkgs map[string]*Package
}

// NewLoader returns a loader anchored at the module rooted at moduleDir
// (its go.mod names the module path).
func NewLoader(moduleDir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", moduleDir)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		ModuleDir:  moduleDir,
		std:        importer.Default(),
		pkgs:       make(map[string]*Package),
	}, nil
}

// FindModuleRoot walks upward from dir to the nearest directory holding a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Loaded returns the package previously loaded under path, or nil. It
// never triggers a load, so it is safe to call from analyzers.
func (l *Loader) Loaded(path string) *Package { return l.pkgs[path] }

// AllLoaded returns every loaded package (analyzed packages and their
// module-local dependencies) in path order.
func (l *Loader) AllLoaded() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// resolveDir maps an import path to a local source directory, or "" if
// the path is not module-local (standard library).
func (l *Loader) resolveDir(path string) string {
	if l.ExtraRoot != "" {
		dir := filepath.Join(l.ExtraRoot, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return dir
		}
	}
	if path == l.ModulePath {
		if hasGoFiles(l.ModuleDir) {
			return l.ModuleDir
		}
		return ""
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		dir := filepath.Join(l.ModuleDir, filepath.FromSlash(rest))
		if hasGoFiles(dir) {
			return dir
		}
	}
	return ""
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// Load parses and type-checks the package at the given import path
// (module-local or ExtraRoot-relative), memoized.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := l.resolveDir(path)
	if dir == "" {
		return nil, fmt.Errorf("lint: package %q not found locally", path)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		// Type-check the files `go build` would compile here: a package
		// with per-architecture or purego variants declares the same
		// names in files that are never built together.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", name, err)
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	sort.Slice(files, func(i, j int) bool {
		return l.Fset.Position(files[i].Pos()).Filename < l.Fset.Position(files[j].Pos()).Filename
	})

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: &loaderImporter{l: l},
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, typeErrs[0])
	}

	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// loaderImporter adapts the loader to go/types: module-local imports are
// type-checked from source (so their syntax stays available to
// cross-package analyzers); everything else comes from the standard
// importer's export data.
type loaderImporter struct{ l *Loader }

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if li.l.resolveDir(path) != "" {
		p, err := li.l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return li.l.std.Import(path)
}
