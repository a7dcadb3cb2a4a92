package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the living documents whose references TestDocRefs checks.
// ROADMAP.md and CHANGES.md are history and may name what is gone; bench/
// is a separate module with its own documents.
var docFiles = []string{"README.md", "ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"}

var (
	fencedRE  = regexp.MustCompile("(?s)```.*?```")
	inlineRE  = regexp.MustCompile("`[^`]+`")
	makeRE    = regexp.MustCompile("(?m)(?:^|[\\s;&(`])make\\s+([a-z][\\w-]*(?:\\|[a-z][\\w-]*)*)")
	cmdRE     = regexp.MustCompile(`\bcmd/([A-Za-z0-9_]+)`)
	mdRE      = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)
	targetRE  = regexp.MustCompile(`(?m)^([A-Za-z0-9][\w.-]*)\s*:(?:[^=]|$)`)
	skipDirRE = regexp.MustCompile(`^(bench|testdata|\..+)$`)
	// apiRefRE matches a qualified name in a stable package, optionRE a
	// bare functional-option name (which always means a tinygroups option).
	apiRefRE = regexp.MustCompile(`\b(tinygroups|scenario|cluster)\.([A-Z]\w*)`)
	optionRE = regexp.MustCompile(`(?:^|[^.\w])(With[A-Z]\w*)`)
)

// stableDirs maps each stable package's name to its directory.
var stableDirs = map[string]string{
	"tinygroups": "tinygroups",
	"scenario":   "tinygroups/scenario",
	"cluster":    "tinygroups/cluster",
}

// TestDocRefs fails when a stable package is undocumented — no package
// comment, or an exported declaration without a doc comment — or when a
// document points at something missing: a `make <target>` the Makefile
// does not define, a cmd/<name> that is not a directory, or — named by a
// document or by any Go comment in this module — a *.md file that does not
// exist or a name qualified by tinygroups, scenario or cluster that is not
// an exported package-level name of that package. A bare option name
// (With…) in a Go comment must be a tinygroups option.
func TestDocRefs(t *testing.T) {
	fset := token.NewFileSet()
	exports := map[string]map[string]bool{}
	for name, dir := range stableDirs {
		var undocumented []string
		exports[name], undocumented = stablePackage(t, fset, dir)
		for _, u := range undocumented {
			t.Error(u)
		}
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range targetRE.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}

	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		// make targets only count inside code: prose says "make a ...".
		code := fencedRE.FindAllString(text, -1)
		code = append(code, inlineRE.FindAllString(fencedRE.ReplaceAllString(text, ""), -1)...)
		for _, c := range code {
			for _, m := range makeRE.FindAllStringSubmatch(c, -1) {
				for _, target := range strings.Split(m[1], "|") {
					if !targets[target] {
						t.Errorf("%s: `make %s` is not a Makefile target", doc, target)
					}
				}
			}
		}
		for _, m := range cmdRE.FindAllStringSubmatch(text, -1) {
			if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
				t.Errorf("%s: cmd/%s is not a directory", doc, m[1])
			}
		}
		checkMarkdownRefs(t, doc, text)
		checkAPIRefs(t, doc, text, exports)
	}

	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && skipDirRE.MatchString(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			text := cg.Text()
			checkMarkdownRefs(t, path, text)
			checkAPIRefs(t, path, text, exports)
			for _, m := range optionRE.FindAllStringSubmatch(text, -1) {
				if !exports["tinygroups"][m[1]] {
					t.Errorf("%s: names option %s, which tinygroups does not export", path, m[1])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkMarkdownRefs reports every *.md name in text that exists neither
// relative to the repository root nor relative to the directory of from.
func checkMarkdownRefs(t *testing.T, from, text string) {
	t.Helper()
	for _, name := range mdRE.FindAllString(text, -1) {
		name = strings.TrimPrefix(name, "./")
		if fileExists(name) || fileExists(filepath.Join(filepath.Dir(from), name)) {
			continue
		}
		t.Errorf("%s: names %s, which does not exist", from, name)
	}
}

// checkAPIRefs reports every name in text qualified by a stable package
// that the package does not declare.
func checkAPIRefs(t *testing.T, from, text string, exports map[string]map[string]bool) {
	t.Helper()
	for _, m := range apiRefRE.FindAllStringSubmatch(text, -1) {
		if !exports[m[1]][m[2]] {
			t.Errorf("%s: names %s.%s, which %s does not export", from, m[1], m[2], m[1])
		}
	}
}

// stablePackage parses the non-test Go files of dir. It returns the
// package-level names they declare (go doc -short would list only the
// first name of each var/const group) and one finding per missing doc
// comment: a package comment on some file; a doc comment on every exported
// function, and on every method of an exported type; and a doc comment on
// every exported type, const and var, on its own spec or on its enclosing
// grouped declaration (a documented const block covers its members, as
// godoc renders it).
func stablePackage(t *testing.T, fset *token.FileSet, dir string) (names map[string]bool, undocumented []string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names = map[string]bool{}
	hasPkgDoc := false
	complain := func(pos token.Pos, name string) {
		undocumented = append(undocumented, fmt.Sprintf("%s: exported %s is undocumented", fset.Position(pos), name))
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		hasPkgDoc = hasPkgDoc || f.Doc != nil
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
				if d.Name.IsExported() && (d.Recv == nil || exportedRecv(d.Recv)) && d.Doc == nil {
					complain(d.Pos(), d.Name.Name)
				}
			case *ast.GenDecl:
				blockDoc := d.Doc != nil
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						if spec.Name.IsExported() && spec.Doc == nil && !blockDoc {
							complain(spec.Pos(), spec.Name.Name)
						}
					case *ast.ValueSpec:
						documented := blockDoc || spec.Doc != nil || spec.Comment != nil
						for _, n := range spec.Names {
							names[n.Name] = true
							if n.IsExported() && !documented {
								complain(n.Pos(), n.Name)
							}
						}
					}
				}
			}
		}
	}
	if len(files) > 0 && !hasPkgDoc {
		undocumented = append(undocumented, dir+": no package comment")
	}
	return names, undocumented
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

// writePkg materializes a one-file package in a temp dir and returns the
// dir.
func writePkg(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestDocCommentFindings pins what stablePackage reports as undocumented.
func TestDocCommentFindings(t *testing.T) {
	dir := writePkg(t, `package p

func Undocumented() {}

type AlsoUndocumented struct{}

// Documented is fine.
func Documented() {}

// unexported needs nothing.
func unexported() {}

const Loose = 1
`)
	_, found := stablePackage(t, token.NewFileSet(), dir)
	out := strings.Join(found, "\n")
	for _, want := range []string{
		"no package comment", "Undocumented", "AlsoUndocumented", "Loose",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("findings missing %q:\n%s", want, out)
		}
	}
	if len(found) != 4 {
		t.Errorf("%d findings, want 4:\n%s", len(found), out)
	}
}

// TestDocCommentCleanPackage pins what stablePackage accepts as documented.
func TestDocCommentCleanPackage(t *testing.T) {
	dir := writePkg(t, `// Package p is documented.
package p

// Kind is documented.
type Kind int

// The kinds, documented as a block.
const (
	A Kind = iota
	B
)

// F is documented.
func F() {}

// M is documented.
func (Kind) M() {}

// internal methods need nothing.
type hidden int

func (hidden) m() {}

func (hidden) Exported() {}
`)
	if _, found := stablePackage(t, token.NewFileSet(), dir); len(found) != 0 {
		t.Errorf("findings on a documented package:\n%s", strings.Join(found, "\n"))
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
