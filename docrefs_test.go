package repro

import (
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

// TestDocRefs fails when a document points at something missing: a
// `make <target>` the Makefile does not define, a cmd/<name> that is not a
// directory, or — named by a document or by any Go comment in this
// module — a *.md file that does not exist or a name qualified by
// tinygroups, scenario or cluster that is not an exported package-level
// name of that package. A bare option name (With…) in a Go comment must be
// a tinygroups option.
func TestDocRefs(t *testing.T) {
	fset := token.FileSet{}
	exports := map[string]map[string]bool{}
	for name, dir := range stableDirs {
		exports[name] = packageNames(t, &fset, dir)
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
		f, err := parser.ParseFile(&fset, path, nil, parser.ParseComments)
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

// packageNames returns the package-level names declared by the non-test
// Go files of dir. go doc -short would list only the first name of each
// var/const group.
func packageNames(t *testing.T, fset *token.FileSet, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
