package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/core").
	Path string
	Fset *token.FileSet
	// Files holds the non-test source files, in file-name order.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Nested marks a package of a separate module nested below the
	// module root (perf/). m3vet checks it like any other package but
	// does not report its stale allow comments. It exists only for
	// perf/'s four stale timetaint allows and goes with them (ROADMAP
	// item 10); no other check reads it.
	Nested bool
}

// Loader loads module packages from a directory tree, with an optional
// in-memory overlay used by the analyzer fixture tests. It implements
// types.Importer: module-internal imports resolve through the loader
// itself (or the overlay) and standard-library imports compile from
// $GOROOT/src, so no export data, go/packages, or external tooling is
// needed.
type Loader struct {
	Fset *token.FileSet
	// ModulePath is the module's import-path prefix ("repro").
	ModulePath string
	// Dir is the module root on disk; may be empty for overlay-only use.
	Dir string
	// Overlay maps import path -> file name -> source text. Overlay
	// entries shadow the disk tree.
	Overlay map[string]map[string]string

	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader for the module rooted at dir, reading the
// module path from go.mod.
func NewLoader(dir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", dir)
	}
	l := NewOverlayLoader(module, nil)
	l.Dir = dir
	return l, nil
}

// NewOverlayLoader returns a loader resolving modulePath-internal
// imports from the overlay alone. Tests use it to type-check fixture
// packages without touching disk.
func NewOverlayLoader(modulePath string, overlay map[string]map[string]string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modulePath,
		Overlay:    overlay,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}
}

// moduleInternal reports whether path belongs to the loaded module.
func (l *Loader) moduleInternal(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// sources returns the file name -> source mapping for path. Disk
// sources are returned with nil content (the parser reads the file).
func (l *Loader) sources(path string) (dir string, names []string, overlay map[string]string, err error) {
	if src, ok := l.Overlay[path]; ok {
		for name := range src {
			names = append(names, name)
		}
		sort.Strings(names)
		return "", names, src, nil
	}
	if l.Dir == "" {
		return "", nil, nil, fmt.Errorf("analysis: package %s not in overlay and no module dir set", path)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir = filepath.Join(l.Dir, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return dir, names, nil, nil
}

// Load parses and type-checks the package with the given import path.
// Results are memoized; test files are skipped (the invariants protect
// simulation code, and tests legitimately use host time and goroutines).
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, names, overlay, err := l.sources(path)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go source files for %s", path)
	}
	var files []*ast.File
	for _, name := range names {
		var (
			f        *ast.File
			parseErr error
		)
		if overlay != nil {
			f, parseErr = parser.ParseFile(l.Fset, name, overlay[name], parser.ParseComments)
		} else {
			f, parseErr = parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		}
		if parseErr != nil {
			return nil, parseErr
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info,
		Nested: overlay == nil && l.inNestedModule(dir)}
	l.pkgs[path] = pkg
	return pkg, nil
}

// inNestedModule reports whether dir lies in a module nested below the
// loader's root: some directory between them has its own go.mod.
func (l *Loader) inNestedModule(dir string) bool {
	for d := dir; d != l.Dir && strings.HasPrefix(d, l.Dir); d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return true
		}
	}
	return false
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.Overlay[path]; ok || l.moduleInternal(path) {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// ListPackages walks the module tree and returns the import paths of
// every directory holding at least one non-test Go file, sorted.
func (l *Loader) ListPackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.Dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.Dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(l.Dir, filepath.Dir(p))
		if err != nil {
			return err
		}
		path := l.ModulePath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	// Dedupe: one entry per directory.
	out := paths[:0]
	for i, p := range paths {
		if i == 0 || paths[i-1] != p {
			out = append(out, p)
		}
	}
	return out, nil
}
