package repro

import (
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
)

// TestDocRefs fails when a document points at something missing: a
// `make <target>` the Makefile does not define, a cmd/<name> that is not a
// directory, or a *.md file — named by a document or by any Go comment in
// this module — that does not exist.
func TestDocRefs(t *testing.T) {
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
	}

	fset := token.NewFileSet()
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
			checkMarkdownRefs(t, path, cg.Text())
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

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
