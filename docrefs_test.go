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
	"slices"
	"sort"
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
		exports[name], _, undocumented = stablePackage(t, fset, dir)
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

// unusedPublic lists the public names of the stable packages that no
// non-test code outside their own package uses yet, in the form
// TestPublicNamesHaveCallers reports them. Each waits for ROADMAP item 14's
// daemon observer, which will install an Observer and switch on the Op of
// each SearchEvent. The test keeps the list exact, so it can only shrink: a
// name that gains a caller, or goes away, must leave it.
var unusedPublic = []string{
	"tinygroups.OpCompute",
	"tinygroups.OpGet",
	"tinygroups.OpLookup",
	"tinygroups.OpPut",
	"tinygroups.WithObserver",
}

// homeOnlyInternal lists the exported names of the packages under internal/
// that no non-test code outside their own package selects, each with the
// reason it stays exported. The test keeps the list exact, so it can only
// shrink.
var homeOnlyInternal = []string{
	// -ldflags "-X repro/internal/buildinfo.Version=..." sets it by its
	// import path, without a selector.
	"buildinfo.Version",
	// cmd/tinygroups' tests register stub experiments through it; the
	// binary itself only runs Default().
	"experiments.Registry.Register",
}

// TestPublicNamesHaveCallers fails when an exported name of an audited
// package has no caller: no non-test Go file outside the package's
// directory, in this module or in bench/, selects it. It audits the stable
// packages against unusedPublic and every package under internal/ against
// homeOnlyInternal, so an internal name exported but used only at home
// fails too. A package-level func, var or const counts as used when such a
// file selects pkg.Name through an import of the package; a method counts
// as used when such a file calls .Method on anything. The receiver's type
// is not resolved, so a call of a same-named method of another type still
// counts, but a field read or a method value does not. Type names and
// fields are not audited: callers reach them through the functions that
// return them.
// Names on a pass's allowlist are exempt, and the test also fails on an
// entry that is used or no longer exists.
func TestPublicNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	internal := internalDirs(t)
	audited := map[string]string{}
	for _, dirs := range []map[string]string{stableDirs, internal} {
		for name, dir := range dirs {
			audited[name] = dir
		}
	}
	used := map[string]map[string]bool{} // selected key → dirs of the files selecting it
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		for _, key := range selectedNames(f, audited) {
			if used[key] == nil {
				used[key] = map[string]bool{}
			}
			used[key][dir] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []struct {
		dirs  map[string]string
		allow []string
		list  string
	}{
		{stableDirs, unusedPublic, "unusedPublic"},
		{internal, homeOnlyInternal, "homeOnlyInternal"},
	} {
		public := map[string]string{}
		for name, dir := range pass.dirs {
			_, names, _ := stablePackage(t, fset, dir)
			for _, n := range names {
				public[name+"."+n] = dir
			}
		}
		for _, miss := range uncalled(public, used, pass.allow, pass.list) {
			t.Error(miss)
		}
	}
}

// internalDirs maps the name of each package under internal/ to its
// directory.
func internalDirs(t *testing.T) map[string]string {
	t.Helper()
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]string{}
	for _, e := range entries {
		if e.IsDir() {
			dirs[e.Name()] = filepath.Join("internal", e.Name())
		}
	}
	return dirs
}

// selectedNames returns the names a file selects, in the keys
// TestPublicNamesHaveCallers audits: "pkg.Name" for a selector on an import
// of a package of pkgs (name → dir), and "*.Method" for any other selector
// that is called, whose receiver type the parse cannot know. An uncalled
// selector is a field read (or a method value) and credits no method.
func selectedNames(f *ast.File, pkgs map[string]string) []string {
	imports := map[string]string{} // local name → audited package name
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		for name, pkgDir := range pkgs {
			if path != "repro/"+pkgDir {
				continue
			}
			local := name
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = name
		}
	}
	called := map[*ast.SelectorExpr]bool{}
	var keys []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				called[sel] = true
			}
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
				keys = append(keys, imports[id.Name]+"."+n.Sel.Name)
			} else if called[n] {
				keys = append(keys, "*."+n.Sel.Name)
			}
		}
		return true
	})
	return keys
}

// uncalled returns one finding per public name that no file outside its
// package uses and the allowlist named list does not exempt, and per
// allowlist entry that is used or not public. public maps "pkg.Name" and
// "pkg.Type.Method" to the package's dir; used maps "pkg.Name" and
// "*.Method", as selectedNames reports them, to the dirs of the files that
// select them.
func uncalled(public map[string]string, used map[string]map[string]bool, allow []string, list string) []string {
	isUsed := func(name string) bool {
		key := name
		if parts := strings.Split(name, "."); len(parts) == 3 {
			key = "*." + parts[2]
		}
		for dir := range used[key] {
			if dir != public[name] {
				return true
			}
		}
		return false
	}
	allowed := map[string]bool{}
	var out []string
	for _, name := range allow {
		allowed[name] = true
		switch _, ok := public[name]; {
		case !ok:
			out = append(out, fmt.Sprintf("%s lists %s, which is no longer public: drop the entry", list, name))
		case isUsed(name):
			out = append(out, fmt.Sprintf("%s lists %s, which now has a caller: drop the entry", list, name))
		}
	}
	for name := range public {
		if !allowed[name] && !isUsed(name) {
			out = append(out, fmt.Sprintf("exported %s has no non-test caller outside its package: delete or unexport it", name))
		}
	}
	sort.Strings(out)
	return out
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
// first name of each var/const group); the public names a caller can use,
// each exported package-level func, var and const as "Name" and each
// exported method of an exported type as "Type.Method"; and one finding per
// missing doc comment: a package comment on some file; a doc comment on
// every exported function, and on every method of an exported type; and a
// doc comment on every exported type, const and var, on its own spec or on
// its enclosing grouped declaration (a documented const block covers its
// members, as godoc renders it).
func stablePackage(t *testing.T, fset *token.FileSet, dir string) (names map[string]bool, public, undocumented []string) {
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
				recv := recvType(d.Recv)
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
				if !d.Name.IsExported() || (d.Recv != nil && !ast.IsExported(recv)) {
					continue
				}
				if d.Recv == nil {
					public = append(public, d.Name.Name)
				} else {
					public = append(public, recv+"."+d.Name.Name)
				}
				if d.Doc == nil {
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
							if !n.IsExported() {
								continue
							}
							public = append(public, n.Name)
							if !documented {
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
	return names, public, undocumented
}

// recvType returns the type name of a method's receiver, or "" for a
// function. Methods on unexported types are not part of the surface godoc
// renders.
func recvType(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
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
			return tt.Name
		default:
			return ""
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

// TestSelectedNamesCreditsOnlyCalls pins that a field read credits no
// method of the same name: an exported method whose only namesake outside
// its package is a field stays uncalled, while a called selector and a
// package-qualified name count.
func TestSelectedNamesCreditsOnlyCalls(t *testing.T) {
	dir := writePkg(t, `package p

import "repro/internal/engine"

type persisted struct{ RNGCount uint64 }

func use(st persisted, c interface{ Close() }) uint64 {
	c.Close()
	_ = engine.Workers
	return st.RNGCount
}
`)
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, "p.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	keys := selectedNames(f, map[string]string{"engine": "internal/engine"})
	sort.Strings(keys)
	if want := []string{"*.Close", "engine.Workers"}; !slices.Equal(keys, want) {
		t.Errorf("selectedNames = %q, want %q", keys, want)
	}
	used := map[string]map[string]bool{}
	for _, k := range keys {
		used[k] = map[string]bool{dir: true}
	}
	public := map[string]string{"epoch.System.RNGCount": "internal/epoch", "epoch.System.Close": "internal/epoch"}
	got := uncalled(public, used, nil, "homeOnlyInternal")
	if len(got) != 1 || !strings.Contains(got[0], "epoch.System.RNGCount") {
		t.Errorf("uncalled = %q, want one finding, for epoch.System.RNGCount", got)
	}
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
	_, _, found := stablePackage(t, token.NewFileSet(), dir)
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
	if _, _, found := stablePackage(t, token.NewFileSet(), dir); len(found) != 0 {
		t.Errorf("findings on a documented package:\n%s", strings.Join(found, "\n"))
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
