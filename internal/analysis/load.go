package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, type-checked package ready for analysis.
// In-package test files (package foo's _test.go files) are checked together
// with the package proper, exactly as `go test` compiles them; external
// test packages (package foo_test) are returned as their own Package with
// the same ImportPath, so path-scoped analyzers cover them too.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	ForTest      string
	Export       string
	DepOnly      bool
	Module       *struct{ Main bool }
	Error        *struct{ Err string }
}

// testVariant reports whether lp is one of the test variants or test
// mains `go list -test` adds beside the packages proper.
func (lp *listedPackage) testVariant() bool {
	return lp.ForTest != "" || strings.HasSuffix(lp.ImportPath, ".test")
}

// Load type-checks the packages matching patterns, which may be either
// import-path patterns (./..., ./internal/serve) or a list of .go files
// (an ad-hoc package, as `go vet file.go` accepts). dir is any directory
// inside the module; the loader resolves the module root itself, so tests
// running in a package directory and `make lint` running at the root see
// the same universe. Every package of the main module is type-checked
// from source, so intra-module imports (including ones reachable only
// from test files) resolve to the same packages the analyzers see.
// Everything else — the standard library and any other module's packages
// (vendored, or replaced, as perfbench sees privmem) — is imported from
// the compiler export data one `go list -deps -test -export` call names.
func Load(dir string, patterns []string) ([]*Package, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	var fileArgs, pathPatterns []string
	for _, p := range patterns {
		if !strings.HasSuffix(p, ".go") {
			pathPatterns = append(pathPatterns, p)
			continue
		}
		// File args are relative to the caller's dir, which may not be
		// the module root the go tool will run in; absolutize them.
		if !filepath.IsAbs(p) {
			p = filepath.Join(dir, p)
		}
		abs, err := filepath.Abs(p)
		if err != nil {
			return nil, err
		}
		fileArgs = append(fileArgs, abs)
	}
	if len(fileArgs) > 0 && len(pathPatterns) > 0 {
		return nil, fmt.Errorf("analysis: cannot mix .go file arguments with package patterns")
	}

	universe, err := goList(root, "-deps", "-test", "-export", "./...")
	if err != nil {
		return nil, err
	}
	matched := universe
	if len(fileArgs) > 0 {
		// An ad-hoc file may import standard packages the module does not.
		matched, err = goList(root, append([]string{"-deps", "-export"}, fileArgs...)...)
	} else if len(pathPatterns) != 1 || pathPatterns[0] != "./..." {
		matched, err = goList(root, pathPatterns...)
	}
	if err != nil {
		return nil, err
	}
	ld := &loader{
		fset:    token.NewFileSet(),
		byPath:  map[string]*listedPackage{},
		exports: map[string]string{},
		checked: map[string]*Package{},
	}
	for _, lp := range append(universe, matched...) {
		switch {
		case lp.Module != nil && lp.Module.Main && !lp.testVariant():
			ld.byPath[lp.ImportPath] = lp
		case lp.Export != "":
			ld.exports[lp.ImportPath] = lp.Export
		}
	}
	ld.export = importer.ForCompiler(ld.fset, "gc", ld.openExport)

	var out []*Package
	for _, lp := range matched {
		if lp.DepOnly || lp.testVariant() {
			continue
		}
		pkgs, err := ld.check(lp)
		if err != nil {
			return nil, err
		}
		out = append(out, pkgs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// moduleRoot resolves the root of the module containing dir via the go
// tool (the directory holding go.mod). Outside a module, dir itself is
// returned.
func moduleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return dir, nil
	}
	return filepath.Dir(gomod), nil
}

// goList runs `go list -json` with args and decodes the streamed package
// objects.
func goList(dir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("go list -json decode: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

type loader struct {
	fset    *token.FileSet
	byPath  map[string]*listedPackage // main-module packages, checked from source
	exports map[string]string         // every other package's export data file
	checked map[string]*Package       // plain packages; nil while one is being checked
	export  types.Importer
}

// check returns the analyzable Package values for lp: the test-augmented
// package (GoFiles + in-package test files, compiled together exactly as
// `go test` does) and, when present, the external _test package. Both
// resolve their imports against plain (test-free) packages, which is what
// breaks the classic augmentation cycle: meter's tests may import a
// package that imports plain meter.
func (ld *loader) check(lp *listedPackage) ([]*Package, error) {
	pkg, err := ld.plain(lp)
	if err != nil {
		return nil, err
	}
	if len(lp.TestGoFiles) > 0 {
		pkg, err = CheckFiles(ld.fset, ld, lp.Dir, lp.ImportPath, append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...))
		if err != nil {
			return nil, err
		}
	}
	out := []*Package{pkg}
	if len(lp.XTestGoFiles) > 0 {
		xpkg, err := CheckFiles(ld.fset, ld, lp.Dir, lp.ImportPath+"_test", lp.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		xpkg.ImportPath = lp.ImportPath
		out = append(out, xpkg)
	}
	return out, nil
}

// plain type-checks the plain (test-free) package at lp, memoized per
// import path. Its intra-module imports are checked on demand through
// Import.
func (ld *loader) plain(lp *listedPackage) (*Package, error) {
	if pkg, ok := ld.checked[lp.ImportPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", lp.ImportPath)
		}
		return pkg, nil
	}
	ld.checked[lp.ImportPath] = nil
	pkg, err := CheckFiles(ld.fset, ld, lp.Dir, lp.ImportPath, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	ld.checked[lp.ImportPath] = pkg
	return pkg, nil
}

// CheckFiles parses the named files of dir and type-checks them as the
// package path, resolving imports through imp.
func CheckFiles(fset *token.FileSet, imp types.Importer, dir, path string, names []string) (*Package, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	tpkg, info, err := typecheck(fset, imp, path, files)
	if err != nil {
		return nil, err
	}
	return &Package{ImportPath: path, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

func typecheck(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return tpkg, info, nil
}

// Import implements types.Importer: main-module packages are checked from
// source; everything else comes from its export data.
func (ld *loader) Import(path string) (*types.Package, error) {
	lp, ok := ld.byPath[path]
	if !ok {
		return ld.export.Import(path)
	}
	pkg, err := ld.plain(lp)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// openExport is the export importer's lookup: it opens the export data
// file `go list -export` named for path.
func (ld *loader) openExport(path string) (io.ReadCloser, error) {
	file, ok := ld.exports[path]
	if !ok {
		return nil, fmt.Errorf("analysis: no export data for %s", path)
	}
	return os.Open(file)
}
