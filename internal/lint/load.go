package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package under analysis: its parsed files
// (non-test sources only — the pass analyzes shipping code), the shared
// FileSet, and full go/types information.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader resolves and type-checks packages using only the standard
// library: imports inside the module map onto directories under the module
// root, everything else resolves from GOROOT source (including the GOROOT
// vendor tree). Both kinds are parsed with go/parser and checked with
// go/types, so the whole pass needs neither export data nor the go tool.
type Loader struct {
	fset    *token.FileSet
	ctx     build.Context
	modPath string
	modRoot string

	pkgs     map[string]*Package       // fully analyzed module packages
	imported map[string]*types.Package // every type-checked package, by path
	loading  map[string]bool           // import-cycle guard
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// NewLoader locates the enclosing module starting from dir (walking up to
// the go.mod) and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := moduleLineRE.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	ctx := build.Default
	// The simulator is pure Go; disabling cgo selects the pure-Go variants
	// of any stdlib package that has them, keeping source type-checking
	// self-contained.
	ctx.CgoEnabled = false
	return &Loader{
		fset:     token.NewFileSet(),
		ctx:      ctx,
		modPath:  string(m[1]),
		modRoot:  root,
		pkgs:     make(map[string]*Package),
		imported: make(map[string]*types.Package),
		loading:  make(map[string]bool),
	}, nil
}

// Load resolves the given patterns ("./...", "./internal/tcp", a plain
// directory) relative to the module root and returns the matched packages,
// type-checked and sorted by import path. Directories named testdata are
// never matched by "./..." — they hold lint fixtures with intentional
// violations.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		p, err := l.loadDir(dir)
		if err != nil {
			if isNoGo(err) {
				continue
			}
			return nil, err
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

func isNoGo(err error) bool {
	var noGo *build.NoGoError
	return errors.As(err, &noGo)
}

// expand turns patterns into a sorted list of candidate directories.
func (l *Loader) expand(patterns []string) (dirs []string, err error) {
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "..." || strings.HasSuffix(pat, "/..."):
			base := filepath.Join(l.modRoot, strings.TrimSuffix(pat, "..."))
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				add(path)
				return nil
			})
			if err != nil {
				return nil, err
			}
		default:
			if filepath.IsAbs(pat) {
				add(filepath.Clean(pat))
			} else {
				add(filepath.Join(l.modRoot, pat))
			}
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// importPathFor maps a directory under the module root to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.modRoot)
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// loadDir type-checks the package in dir with full syntax and info.
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	p := &Package{
		ImportPath: path,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[path] = p
	l.imported[path] = tpkg
	return p, nil
}

// importPkg resolves one import for the type checker: module-internal
// packages get the full loadDir treatment (so they are analyzable too),
// everything else type-checks from GOROOT source without retaining syntax.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if tp, ok := l.imported[path]; ok {
		return tp, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		sub := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		p, err := l.loadDir(filepath.Join(l.modRoot, filepath.FromSlash(sub)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	dir, err := l.gorootDir(path)
	if err != nil {
		return nil, err
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: import %q: %w", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: importerFunc(l.importPkg), FakeImportC: true}
	// GOROOT sources are trusted: tolerate individual type errors (some
	// runtime-internal constructs do not re-check cleanly from source) as
	// long as a usable package object comes back.
	conf.Error = func(error) {}
	tp, err := conf.Check(path, l.fset, files, nil)
	if tp == nil {
		return nil, fmt.Errorf("lint: typecheck %q: %w", path, err)
	}
	tp.MarkComplete()
	l.imported[path] = tp
	return tp, nil
}

// gorootDir resolves a non-module import path under GOROOT/src, falling
// back to the GOROOT vendor tree (net/http style vendored deps).
func (l *Loader) gorootDir(path string) (string, error) {
	goroot := runtime.GOROOT()
	for _, dir := range []string{
		filepath.Join(goroot, "src", filepath.FromSlash(path)),
		filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("lint: cannot resolve import %q (not in module %s or GOROOT)", path, l.modPath)
}

// importerFunc adapts a function to the types.Importer interface.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
