package contention_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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
	// docFlag is a command-line flag as README names one: a hyphen at
	// the start of a word and two or more lowercase letters, digits or
	// inner hyphens. One-letter and upper-case options (curl -s -X,
	// go build -o, kill -HUP) belong to other tools.
	docFlag = regexp.MustCompile("(?:^|[\\s`(\\[/])-([a-z][a-z0-9]+(?:-[a-z0-9]+)*)\\b")
)

// docFlagSources are the files and directories whose flag
// registrations README's flags must name, and docGoFlags the go tool's
// own flags README may name besides.
var (
	docFlagSources = []string{"cmd", "bench", filepath.Join("internal", "obs", "command.go")}
	docGoFlags     = map[string]bool{"bench": true, "benchmem": true, "benchtime": true, "race": true, "run": true, "count": true}
)

// TestDocNamesExist fails on every Test, Benchmark or Fuzz function
// that README.md, DESIGN.md, EXPERIMENTS.md or the verify notes name
// and no _test.go file of this module or of the bench module declares,
// and on every `make <target>` they name that the Makefile does not
// define. A document that names a check that is gone tells its reader
// the check still runs. It fails too on every -flag README names that
// no flag registration (flagNames) in cmd/, bench/,
// internal/obs/command.go or the root package's tests declares, the go
// tool's own flags aside: a README flag that is gone makes its command
// exit 2.
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
	flags, err := flagNames(fset)
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(readme), "\n") {
		for _, m := range docFlag.FindAllStringSubmatch(line, -1) {
			if !flags[m[1]] && !docGoFlags[m[1]] {
				t.Errorf("README.md:%d: -%s is registered by no flag call", i+1, m[1])
			}
		}
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

// flagRegistrations are the flag package's functions and FlagSet
// methods that register a flag, each with the index of the argument
// that names it.
var flagRegistrations = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "String": 0, "Float64": 0, "Duration": 0,
	"Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1, "StringVar": 1,
	"Float64Var": 1, "DurationVar": 1, "Var": 1, "TextVar": 1,
}

// flagNames returns the name of every flag registered in the Go files
// of docFlagSources and in the root package's _test.go files: a
// flagRegistrations call on the flag package, or on a variable the
// same file assigns flag.NewFlagSet to, whose name is a string literal.
func flagNames(fset *token.FileSet) (map[string]bool, error) {
	var files []string
	for _, src := range docFlagSources {
		err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	rootTests, err := filepath.Glob("*_test.go")
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, path := range append(files, rootTests...) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		flagSets := map[string]bool{"flag": true}
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
				for i, rhs := range as.Rhs {
					if id, ok := as.Lhs[i].(*ast.Ident); ok && isFlagCall(rhs, map[string]bool{"flag": true}, "NewFlagSet") {
						flagSets[id.Name] = true
					}
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			i, ok := flagRegistrations[sel.Sel.Name]
			if !ok || !isFlagCall(call, flagSets, sel.Sel.Name) || len(call.Args) <= i {
				return true
			}
			if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					names[name] = true
				}
			}
			return true
		})
	}
	return names, nil
}

// isFlagCall reports whether e calls fn on one of the receivers named
// in recvs.
func isFlagCall(e ast.Expr, recvs map[string]bool, fn string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && recvs[id.Name]
}
