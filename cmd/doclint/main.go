// Command doclint enforces doc comments on the exported surface of the
// stable packages — the repository's stdlib-only equivalent of revive's
// exported rule, wired into CI so the godoc pass cannot regress.
//
// Usage:
//
//	doclint ./tinygroups ./tinygroups/scenario ./tinygroups/cluster
//
// For each package directory it requires:
//
//   - a package comment on at least one file;
//   - a doc comment on every exported function and method (methods only
//     when the receiver type is itself exported);
//   - a doc comment on every exported type, const and var — either on the
//     individual spec or on its enclosing grouped declaration (a documented
//     const block covers its members, matching godoc's rendering).
//
// Test files are ignored. Findings print one per line as
// file:line: exported NAME is undocumented; any finding exits 1.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints every directory argument and returns the process exit code.
func run(dirs []string, stdout, stderr io.Writer) int {
	if len(dirs) == 0 {
		fmt.Fprintln(stderr, "usage: doclint <package-dir>...")
		return 2
	}
	var findings []string
	for _, dir := range dirs {
		f, err := lintDir(dir)
		if err != nil {
			fmt.Fprintf(stderr, "doclint: %v\n", err)
			return 2
		}
		findings = append(findings, f...)
	}
	sort.Strings(findings)
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "doclint: %d undocumented exported symbols\n", len(findings))
		return 1
	}
	return 0
}

// lintDir parses one package directory (tests excluded) and returns its
// findings.
func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []string
	for name, pkg := range pkgs {
		if strings.HasSuffix(name, "_test") {
			continue
		}
		findings = append(findings, lintPkg(fset, dir, pkg)...)
	}
	return findings, nil
}

// lintPkg checks one parsed package: package comment plus every exported
// declaration.
func lintPkg(fset *token.FileSet, dir string, pkg *ast.Package) []string {
	var findings []string
	hasPkgDoc := false
	for _, f := range pkg.Files {
		if f.Doc != nil {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc {
		findings = append(findings, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			findings = append(findings, lintDecl(fset, decl)...)
		}
	}
	return findings
}

// lintDecl checks one top-level declaration.
func lintDecl(fset *token.FileSet, decl ast.Decl) []string {
	var findings []string
	complain := func(pos token.Pos, name string) {
		findings = append(findings,
			fmt.Sprintf("%s: exported %s is undocumented", fset.Position(pos), name))
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		if d.Recv != nil && !exportedRecv(d.Recv) {
			return nil
		}
		if d.Doc == nil {
			complain(d.Pos(), d.Name.Name)
		}
	case *ast.GenDecl:
		if d.Tok == token.IMPORT {
			return nil
		}
		blockDoc := d.Doc != nil
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				if sp.Name.IsExported() && sp.Doc == nil && !blockDoc {
					complain(sp.Pos(), sp.Name.Name)
				}
			case *ast.ValueSpec:
				if blockDoc || sp.Doc != nil || sp.Comment != nil {
					continue
				}
				for _, n := range sp.Names {
					if n.IsExported() {
						complain(n.Pos(), n.Name)
					}
				}
			}
		}
	}
	return findings
}

// exportedRecv reports whether a method's receiver names an exported type
// (methods on unexported types are not part of the surface godoc renders).
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr: // generic receiver T[P1, P2]
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}
