// Package lint is bsrnglint's engine: a stdlib-only static-analysis
// suite (go/ast + go/parser + go/types with the source importer — no
// x/tools) that loads every package in the module and enforces the
// repo's load-bearing invariants. DESIGN.md §9 specifies each rule;
// cmd/bsrnglint is the driver. There is no suppression directive:
// every finding fails the gate, and code that trips a rule is changed,
// or the rule is.
//
// The engine deliberately re-implements the sliver of go/packages it
// needs: the repo's tier-1 gate is stdlib-only, and the loader doubles
// as the fixture harness for the golden tests (any directory tree can
// be loaded as a module, so deliberate violations live under testdata
// where the go tool never sees them).
package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Module is the unit bsrnglint analyzes: every package under one module
// root, parsed and type-checked, plus the packages' test files parsed
// syntactically (analyzers that look at tests do not need type
// information).
type Module struct {
	Fset *token.FileSet
	// Path is the module path, e.g. "repro".
	Path string
	// Dir is the module root directory.
	Dir string
	// Packages holds every package found under Dir, sorted by import
	// path.
	Packages []*Package

	loader *loader
}

// Package is one loaded package: type-checked non-test syntax plus
// parsed (untyped) test files.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	// Files are the build-tag-filtered non-test files, type-checked.
	Files []*ast.File
	// TestFiles are the package's _test.go files (internal and
	// external), parsed with comments but not type-checked.
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// Lookup finds a loaded (or loadable) package by import path; nil if
// the path is outside every registered root or fails to load.
func (m *Module) Lookup(path string) *Package {
	p, err := m.loader.load(path)
	if err != nil {
		return nil
	}
	return p
}

// loader resolves imports across a set of module roots, type-checking
// module packages from source and delegating the standard library to
// go/importer's source importer.
type loader struct {
	fset  *token.FileSet
	roots map[string]string // module path -> directory
	std   types.Importer
	pkgs  map[string]*Package
	stack []string // active loads, for import-cycle reporting
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.rootFor(path); ok {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// rootFor maps an import path to the registered module root owning it.
func (l *loader) rootFor(path string) (dir string, ok bool) {
	for mod, root := range l.roots {
		if path == mod {
			return root, true
		}
		if strings.HasPrefix(path, mod+"/") {
			return filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, mod+"/"))), true
		}
	}
	return "", false
}

// load parses and type-checks one module package (memoized).
func (l *loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("lint: import cycle through %s: %s", path, strings.Join(l.stack, " -> "))
		}
		return p, nil
	}
	dir, ok := l.rootFor(path)
	if !ok {
		return nil, fmt.Errorf("lint: %s is outside every registered module root", path)
	}
	l.pkgs[path] = nil // cycle marker
	l.stack = append(l.stack, path)
	defer func() { l.stack = l.stack[:len(l.stack)-1] }()

	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	parse := func(names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			files = append(files, f)
		}
		return files, nil
	}
	files, err := parse(bp.GoFiles)
	if err != nil {
		return nil, err
	}
	testFiles, err := parse(append(append([]string{}, bp.TestGoFiles...), bp.XTestGoFiles...))
	if err != nil {
		return nil, err
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for i, e := range typeErrs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(typeErrs)-i))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type-checking %s failed:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}

	p := &Package{
		ImportPath: path,
		Name:       bp.Name,
		Dir:        dir,
		Files:      files,
		TestFiles:  testFiles,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[path] = p
	return p, nil
}

// Load walks the module rooted at roots[mainPath], loading and
// type-checking every package found there. Additional roots let a
// loaded tree (e.g. a test fixture module) import packages of another
// on-disk module by path.
func Load(mainPath string, roots map[string]string) (*Module, error) {
	if _, ok := roots[mainPath]; !ok {
		return nil, fmt.Errorf("lint: no root registered for module %s", mainPath)
	}
	abs := make(map[string]string, len(roots))
	for mod, d := range roots {
		a, err := filepath.Abs(d)
		if err != nil {
			return nil, err
		}
		abs[mod] = a
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:  fset,
		roots: abs,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*Package{},
	}
	m := &Module{Fset: fset, Path: mainPath, Dir: abs[mainPath], loader: l}

	paths, err := packageDirs(abs[mainPath], mainPath)
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			if isNoGo(err) {
				continue
			}
			return nil, err
		}
		m.Packages = append(m.Packages, pkg)
	}
	sort.Slice(m.Packages, func(i, j int) bool { return m.Packages[i].ImportPath < m.Packages[j].ImportPath })
	return m, nil
}

// isNoGo reports the "directory has no buildable Go files" load error,
// which the walk treats as "not a package" rather than a failure.
func isNoGo(err error) bool {
	var ng *build.NoGoError
	return errors.As(err, &ng)
}

// packageDirs enumerates candidate package import paths under root,
// skipping testdata, vendor and hidden/underscore directories.
func packageDirs(root, modPath string) ([]string, error) {
	var out []string
	err := filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			return nil
		}
		name := fi.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				ip := modPath
				if rel != "." {
					ip = modPath + "/" + filepath.ToSlash(rel)
				}
				out = append(out, ip)
				break
			}
		}
		return nil
	})
	return out, err
}

var modLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)\s*$`)

// FindModule locates the enclosing module of dir by walking up to the
// nearest go.mod and returns its root directory and module path.
func FindModule(dir string) (root, path string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			mm := modLineRE.FindSubmatch(data)
			if mm == nil {
				return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
			}
			return d, string(mm[1]), nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}
