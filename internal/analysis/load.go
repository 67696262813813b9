package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// A Package is one parsed and type-checked package of the module under
// analysis.
type Package struct {
	Path  string // import path, e.g. nocvi/internal/core
	Dir   string // absolute directory
	Name  string // package clause name
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader resolves, parses and type-checks packages of a single Go
// module using only the standard library: module-internal imports are
// type-checked recursively from source by the Loader itself, and
// everything else (the standard library) is delegated to the source
// go/importer. No golang.org/x/tools, no export data.
type Loader struct {
	Root         string // absolute module root (the directory holding go.mod)
	Module       string // module path from go.mod
	IncludeTests bool   // also parse _test.go files of the package under test
	Fset         *token.FileSet

	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader prepares a Loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, errors.New("analysis: source importer does not implement types.ImporterFrom")
	}
	return &Loader{
		Root:    abs,
		Module:  mod,
		Fset:    fset,
		std:     std,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// LoadPatterns loads every package matched by the given patterns, in
// deterministic (sorted import path) order. Supported patterns are a
// plain relative directory ("./cmd/noclint") and the recursive form
// ("./...", "./internal/..."), mirroring the go tool. Directories named
// testdata or vendor, directories starting with "." or "_", and nested
// modules (directories holding their own go.mod) are skipped by the
// recursive form.
func (l *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirSet := map[string]bool{}
	for _, pat := range patterns {
		if base, ok := strings.CutSuffix(pat, "..."); ok {
			base = strings.TrimSuffix(base, "/")
			if base == "" || base == "." {
				base = l.Root
			} else {
				base = filepath.Join(l.Root, base)
			}
			if err := walkGoDirs(base, l.IncludeTests, dirSet); err != nil {
				return nil, err
			}
			continue
		}
		dir := filepath.Join(l.Root, pat)
		ok, err := hasGoFiles(dir, l.IncludeTests)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("analysis: no Go files in %s", dir)
		}
		dirSet[dir] = true
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		ip := l.Module
		if rel != "." {
			ip = l.Module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(ip)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// walkGoDirs collects, into out, every directory under base holding at
// least one analyzable Go file.
func walkGoDirs(base string, tests bool, out map[string]bool) error {
	return filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != base && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if p != base {
			// A nested go.mod starts another module, which the go tool's
			// ./... leaves out too.
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		ok, err := hasGoFiles(p, tests)
		if err != nil {
			return err
		}
		if ok {
			out[p] = true
		}
		return nil
	})
}

func hasGoFiles(dir string, tests bool) (bool, error) {
	names, err := goFileNames(dir, tests)
	if err != nil {
		return false, err
	}
	return len(names) > 0, nil
}

// goFileNames lists the Go files of dir in sorted order, applying the
// same exclusions as the recursive walk.
func goFileNames(dir string, tests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// load parses and type-checks the module package with the given import
// path, memoized across the Loader's lifetime.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")))
	names, err := goFileNames(dir, l.IncludeTests)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var parsed []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	// The package clause of the first non-external-test file names the
	// package; files of the external test package (package foo_test)
	// are dropped — they exercise the public API and cannot perturb the
	// invariants the analyzers guard.
	pkgName := ""
	for _, f := range parsed {
		if !strings.HasSuffix(f.Name.Name, "_test") {
			pkgName = f.Name.Name
			break
		}
	}
	if pkgName == "" {
		pkgName = parsed[0].Name.Name
	}
	var files []*ast.File
	for _, f := range parsed {
		if f.Name.Name == pkgName {
			files = append(files, f)
		}
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Name:  pkgName,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal import
// paths recurse into the Loader, anything else goes to the standard
// library's source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}
