package framework

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
)

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load resolves the given `go list` patterns (e.g. "./...") to type-checked
// packages ready for analysis. It shells out to `go list -export -deps` so
// the go toolchain does dependency resolution and produces export data for
// every import; the target packages themselves are parsed and type-checked
// from source (the analyzers need their ASTs), with imports satisfied from
// the export data. No code outside the standard library is required.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	return loadList(out)
}

// loadList turns raw `go list -e -export -deps -json` output into parsed,
// type-checked packages. Split from Load so the decoding and type-checking
// error paths are testable without a real toolchain invocation.
func loadList(out []byte) ([]*Package, error) {
	exports := make(map[string]string)
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", name, err)
			}
			files = append(files, f)
		}
		info := NewInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			Path:  t.ImportPath,
			Fset:  fset,
			Files: files,
			Types: tpkg,
			Info:  info,
		})
	}
	return pkgs, nil
}
