package contention_test

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

// docNameFiles are the documents whose test and make-target names
// TestDocNamesExist holds to the code.
var docNameFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	docTestName   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	docMakeTarget = regexp.MustCompile("`make ([a-z][a-z0-9_-]*)")
	makefileRule  = regexp.MustCompile(`(?m)^([a-z][a-z0-9_-]*):`)
)

// TestDocNamesExist fails on every Test, Benchmark or Fuzz function
// that README.md, DESIGN.md, EXPERIMENTS.md or the verify notes name
// and no _test.go file of this module or of the bench module declares,
// and on every `make <target>` they name that the Makefile does not
// define. A document that names a check that is gone tells its reader
// the check still runs.
func TestDocNamesExist(t *testing.T) {
	declared := map[string]bool{}
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				declared[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makefileRule.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	for _, doc := range docNameFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, name := range docTestName.FindAllString(line, -1) {
				if !declared[name] {
					t.Errorf("%s:%d: %s is declared in no _test.go file", doc, i+1, name)
				}
			}
			for _, m := range docMakeTarget.FindAllStringSubmatch(line, -1) {
				if !targets[m[1]] {
					t.Errorf("%s:%d: make %s is no Makefile target", doc, i+1, m[1])
				}
			}
		}
	}
}
