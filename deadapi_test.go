package contention_test

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"testing"
)

// deadAPIAllow names the exported internal API that only another
// package's tests call and that stays anyway, each with the test that
// needs it. Keep it short: anything else a test wants it builds in its
// own _test.go files or reaches through API production already uses.
var deadAPIAllow = map[string]string{
	// Simulator state that other packages' tests read back.
	"contention/internal/cpu.Host.Load":            "link TestStopFromHandlerParksARunningAheadSender: the parked sender is the host's one job",
	"contention/internal/cpu.Host.Completed":       "des TestRunAheadMatchesQueueAndPark: jobs served by both runs",
	"contention/internal/cpu.Host.ConfigureMemory": "core TestMemoryExtensionMatchesSimulation: the paging reference CompSlowdownWithMemory is held to",
	"contention/internal/cpu.Host.Reserve":         "core TestMemoryExtensionMatchesSimulation: working sets of the app and its hogs",
	"contention/internal/cpu.Residency.Release":    "des TestRunAheadMatchesQueueAndPark: working sets released mid-run",
	"contention/internal/disk.Disk.BusyTime":       "workload TestAlternatorIOFractionUsesDisk: the device's busy fraction",
	"contention/internal/mesh.Machine.FabricBusy":  "link TestStreamMatchesSendLoop: fabric occupancy of both runs",
	"contention/internal/mesh.Machine.FabricSends": "link TestStreamMatchesSendLoop: fabric transfers of both runs",
	// Serving hooks that cluster and serve tests drive.
	"contention/internal/obs.Tracer.Reset":       "serve withTracing and cluster withTraceRecording: past its bound the process tracer drops new spans",
	"contention/internal/serve.ServeFrames":      "cluster newFakeReplica and newRecordingMember: stand-in replicas answer frames with it",
	"contention/internal/serve.Server.Admission": "cluster TestKillSeversFrames and TestSubMillisecondBudgetReachesReplica: a replica's in-flight count",
}

// deadAPIExemptPkgs are packages whose whole API is a test reference.
var deadAPIExemptPkgs = []string{
	"contention/internal/prob", // the Poisson-binomial the slowdown kernel's tests and the bench ladder hold it to
}

// TestNoDeadAPI fails on every exported name, and every unexported
// function or method, declared in a non-test file under internal/ that
// no non-test file of this module or of the bench module uses. Tests
// cannot keep code alive: a helper only tests call belongs in the
// _test.go files of the package whose tests use it.
func TestNoDeadAPI(t *testing.T) {
	dead, err := deadAPI(".", []string{"bench"}, deadAPIExemptPkgs, deadAPIAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("no non-test use: %s", d)
	}
}

// TestDeadAPIFixture runs the gate on a two-module fixture: of
// internal/lib's names it must flag only the dead exported and
// unexported functions, the interface only a test uses and the method
// only that interface declares — not a String method, an exported or
// unexported method production calls through an interface, or a
// function only the consumer module calls.
func TestDeadAPIFixture(t *testing.T) {
	dead, err := deadAPI(filepath.Join("testdata", "deadapi"), []string{"consumer"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d[strings.LastIndex(d, " ")+1:])
	}
	sort.Strings(got)
	if want := []string{"lib.Poker", "lib.Unused", "lib.Widget.Poke", "lib.unused"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("flagged %q, want exactly %q", got, want)
	}
}

// deadStdIfaces are standard-library interfaces whose methods the
// standard library calls on our behalf, so they have no call site in
// this module. A method that satisfies one of them, or error, is live.
var deadStdIfaces = [][2]string{
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"net/http", "Handler"}, {"io", "Reader"}, {"net", "Listener"},
}

// listedPkg is the part of `go list -json` the gate reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Path string }
}

// goList lists dir's module packages and all their dependencies with
// export data built, plus the standard packages the exemptions name.
func goList(dir string) (mod string, pkgs []listedPkg, err error) {
	out, err := exec.Command("go", "list", "-C", dir, "-m").Output()
	if err != nil {
		return "", nil, fmt.Errorf("go list -m in %s: %w", dir, err)
	}
	mod = strings.TrimSpace(string(out))
	args := []string{"list", "-C", dir, "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Module", "./..."}
	for _, si := range deadStdIfaces {
		args = append(args, si[0])
	}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err = cmd.Output()
	if err != nil {
		return "", nil, fmt.Errorf("go list -export in %s: %w", dir, err)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return mod, pkgs, nil
		} else if err != nil {
			return "", nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// deadAPI type-checks the non-test files of the module at root and of
// each consumer module (directories relative to root) against export
// data, and returns "file:line: pkg.Name" (or pkg.Type.Method) for each
// exported name, and each unexported function or method, declared under
// root's internal/ that none of them uses. Unexported consts, vars,
// types and fields are not candidates: enum members are used only by
// position. A use inside the name's own declaration does not count. Exempt are
// methods that satisfy an interface method some non-test file calls or
// a deadStdIfaces interface, exported methods of types the root package
// aliases, everything in the exempt packages, and the allow-list.
func deadAPI(root string, consumers []string, exemptPkgs []string, allow map[string]string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	var srcPkgs []listedPkg
	var rootMod string
	seen := map[string]bool{}
	for i, dir := range append([]string{root}, consumers...) {
		if i > 0 {
			dir = filepath.Join(root, dir)
		}
		mod, pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			rootMod = mod
		}
		for _, p := range pkgs {
			if p.Export != "" && exports[p.ImportPath] == "" {
				exports[p.ImportPath] = p.Export
			}
			if p.Module != nil && (p.Module.Path == mod || p.Module.Path == rootMod) && !seen[p.ImportPath] && len(p.GoFiles) > 0 {
				seen[p.ImportPath] = true
				srcPkgs = append(srcPkgs, p)
			}
		}
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})

	// Every use of a named object in a non-test file, and every
	// interface whose methods are called.
	used := map[string]bool{}
	ifaces := map[string]*deadIface{}
	checked := map[string]*types.Package{}
	for _, p := range srcPkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		self := map[*ast.Ident]bool{}
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					obj := info.Defs[fd.Name]
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
							self[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range info.Uses {
			if self[id] {
				continue
			}
			if k := deadKey(obj); k != "" {
				used[k] = true
			}
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					it := recv.Type().Underlying().(*types.Interface)
					k := types.TypeString(recv.Type(), nil)
					if ifaces[k] == nil {
						ifaces[k] = &deadIface{it: it, methods: map[string]bool{}}
					}
					ifaces[k].methods[fn.Name()] = true
				}
			}
		}
	}
	for _, si := range deadStdIfaces {
		pkg, err := imp.Import(si[0])
		if err != nil {
			return nil, err
		}
		it := pkg.Scope().Lookup(si[1]).Type().Underlying().(*types.Interface)
		di := &deadIface{it: it, methods: map[string]bool{}}
		for i := 0; i < it.NumMethods(); i++ {
			di.methods[it.Method(i).Name()] = true
		}
		ifaces[si[0]+"."+si[1]] = di
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	ifaces["error"] = &deadIface{it: errIface, methods: map[string]bool{"Error": true}}

	// Candidates come from the type-checked sources, whose scopes hold
	// the unexported names export data may omit; interface satisfaction
	// is then decided over the named types of the root module, embedded
	// promotion included. Types from sources and from export data are
	// distinct objects, so keys and signatures compare as strings.
	live := map[string]bool{}
	type cand struct {
		key string
		pos token.Pos
	}
	var cands []cand
	for _, p := range srcPkgs {
		if p.Module.Path != rootMod {
			continue
		}
		pkg := checked[p.ImportPath]
		internal := strings.HasPrefix(p.ImportPath, rootMod+"/internal/")
		for _, ex := range exemptPkgs {
			if p.ImportPath == ex || strings.HasPrefix(p.ImportPath, ex+"/") {
				internal = false
			}
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if p.ImportPath == rootMod {
				if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
					if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
						for i := 0; i < n.NumMethods(); i++ {
							if m := n.Method(i); m.Exported() {
								live[deadKey(m)] = true
							}
						}
					}
				}
			}
			n, _ := obj.Type().(*types.Named)
			if tn, ok := obj.(*types.TypeName); !ok || tn.IsAlias() || types.IsInterface(n) {
				n = nil
			}
			if n != nil {
				ms := types.NewMethodSet(types.NewPointer(n))
				for _, di := range ifaces {
					if !deadImplements(ms, di.it) {
						continue
					}
					for m := range di.methods {
						for i := 0; i < ms.Len(); i++ {
							if ms.At(i).Obj().Name() == m {
								live[deadKey(ms.At(i).Obj())] = true
							}
						}
					}
				}
			}
			if !internal {
				continue
			}
			if _, fn := obj.(*types.Func); fn || obj.Exported() {
				cands = append(cands, cand{deadKey(obj), obj.Pos()})
			}
			if n != nil {
				for i := 0; i < n.NumMethods(); i++ {
					m := n.Method(i)
					cands = append(cands, cand{deadKey(m), m.Pos()})
				}
			}
		}
	}
	var dead []string
	for _, c := range cands {
		if used[c.key] || live[c.key] || allow[c.key] != "" {
			continue
		}
		pos := fset.Position(c.pos)
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		dead = append(dead, fmt.Sprintf("%s:%d: %s", rel, pos.Line, strings.TrimPrefix(c.key, rootMod+"/internal/")))
	}
	for k := range allow {
		if used[k] || live[k] {
			dead = append(dead, "allow-list entry has a non-test use now, drop it: "+k)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// deadIface is an interface and the names of its methods that count as
// called.
type deadIface struct {
	it      *types.Interface
	methods map[string]bool
}

// deadKey names a package-level object pkgpath.Name, or a method
// pkgpath.Type.Method; other objects (locals, fields, methods of
// interface literals) get "".
func deadKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			n, ok := types.Unalias(t).(*types.Named)
			if !ok {
				return ""
			}
			return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// deadImplements reports whether the method set ms has every method of
// it with the same signature. Signatures compare as strings with full
// package paths, because the interface may come from a source-checked
// package and ms from export data.
func deadImplements(ms *types.MethodSet, it *types.Interface) bool {
	if it.NumMethods() == 0 {
		return false
	}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		found := false
		for j := 0; j < ms.Len(); j++ {
			o := ms.At(j).Obj()
			if o.Name() == m.Name() && (m.Exported() || o.Pkg().Path() == m.Pkg().Path()) &&
				deadSig(o.Type()) == deadSig(m.Type()) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// deadSig renders a signature's parameter and result types.
func deadSig(t types.Type) string {
	sig := t.(*types.Signature)
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), nil))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
