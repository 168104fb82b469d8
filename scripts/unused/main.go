// Command unused prints how many exported functions and methods declared in
// internal/ have a name that no non-test Go file in the module uses as an
// identifier anywhere but in a function declaration's own name. Methods
// named like common interface methods are skipped: they are called through
// an interface or by reflection (fmt, sort, container/heap, io) without
// their name being written. Run from the module root; scripts/loc.sh does.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

var viaInterface = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"String": true, "Error": true, "Read": true, "Write": true, "Close": true,
}

func main() {
	used := map[string]bool{}
	var decls []string // exported functions and methods declared in internal/
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				names[fn.Name] = true
				if strings.HasPrefix(path, "internal"+string(filepath.Separator)) && fn.Name.IsExported() && !(fn.Recv != nil && viaInterface[fn.Name.Name]) {
					decls = append(decls, fn.Name.Name)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "unused:", err)
		os.Exit(1)
	}
	n := 0
	for _, name := range decls {
		if !used[name] {
			n++
		}
	}
	fmt.Println(n)
}
