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
// package's tests call or set and that stays anyway, each with the test
// that needs it. Keep it short: anything else a test wants it builds in
// its own _test.go files or reaches through API production already uses.
var deadAPIAllow = map[string]string{
	// Simulator state that other packages' tests read back.
	"contention/internal/cpu.Host.Load":            "link TestStopFromHandlerParksARunningAheadSender: the parked sender is the host's one job",
	"contention/internal/cpu.Host.Completed":       "des TestRunAheadMatchesQueueAndPark: jobs served by both runs",
	"contention/internal/disk.Disk.BusyTime":       "workload TestAlternatorIOFractionUsesDisk: the device's busy fraction",
	"contention/internal/disk.Disk.Op":             "workload TestContenderMatchesProcessLoop: the reference contender process's disk operations",
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
// no non-test file of this module or of the bench module uses, and on
// every exported field of an exported struct type there that none of
// them writes. The root package's exports are held to more: one is live
// only when a non-test file outside the root package names it, or when
// it is reached from such a name (deadRootLive), so a façade alias does
// not keep alive the name it aliases.
// Tests cannot keep code alive: a helper only tests call belongs in the
// _test.go files of the package whose tests use it, and a setting only
// tests set is a constant.
func TestNoDeadAPI(t *testing.T) {
	dead, err := deadAPI(".", []string{"bench"}, deadAPIExemptPkgs, deadAPIAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("no non-test use: %s", d)
	}
}

// TestEverySeriesHasAReader fails on every series name declared in
// internal/obs/names.go that no non-test file of this module or of the
// bench module reads: the call that registers a series does not read
// it. A series earns its place by a reader — the run manifest, a bench
// metric, the fleet page or loadgen's report — so one nothing reads
// leaves with its registration, and there is no allow-list.
func TestEverySeriesHasAReader(t *testing.T) {
	unread, err := seriesWithoutReader(".", []string{"bench"})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unread {
		t.Errorf("no reader: %s", u)
	}
}

// TestDeadAPIFixture runs the gate on a two-module fixture: of
// internal/lib's names it must flag only the dead exported and
// unexported functions, the interface only a test uses, the method
// only that interface declares, the field only a test sets, the field
// only a value receiver's withDefaults sets and the field only a
// function that takes its struct by value sets — not a String
// method, an exported or unexported method production calls through an
// interface, a function or field only the consumer module uses, a
// field a pointer method writes or a tagged field. Of the root
// façade's exports it must flag only the two aliases nothing outside
// the root names (one of a type another, live alias denotes) and the
// function only a root test calls — not an alias the consumer module
// uses or a type only a live function's result names.
// Of its internal/obs/names.go series the reader rule must flag only
// the one only an obs.New* call registers, the one only a Registry
// method registers and the one only a test reads besides its
// registration — not one a command reads or one only the consumer
// module reads.
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
	if want := []string{"deadfix.RootTestOnly", "deadfix.Spare", "deadfix.Twin", "lib.Config.Constructed", "lib.Config.Defaulted", "lib.Config.TestOnly", "lib.Poker", "lib.Unused", "lib.Widget.Poke", "lib.unused"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("flagged %q, want exactly %q", got, want)
	}
	unread, err := seriesWithoutReader(filepath.Join("testdata", "deadapi"), []string{"consumer"})
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for _, u := range unread {
		got = append(got, u[strings.LastIndex(u, " ")+1:])
	}
	sort.Strings(got)
	if want := []string{"MetricMethodRegistered", "MetricRegistered", "MetricTestRead"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("series without a reader %q, want exactly %q", got, want)
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

// deadPkg is one type-checked package of a deadLoad.
type deadPkg struct {
	listedPkg
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// deadModule is the non-test source of a module and its consumer
// modules, type-checked against export data.
type deadModule struct {
	root string // absolute
	mod  string // root's module path
	fset *token.FileSet
	imp  types.Importer
	pkgs []*deadPkg
}

// deadLoad parses and type-checks the non-test files of every package
// of the module at root and of each consumer module (directories
// relative to root) against export data.
func deadLoad(root string, consumers []string) (*deadModule, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	m := &deadModule{root: root, fset: token.NewFileSet()}
	exports := map[string]string{}
	var srcPkgs []listedPkg
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
			m.mod = mod
		}
		for _, p := range pkgs {
			if p.Export != "" && exports[p.ImportPath] == "" {
				exports[p.ImportPath] = p.Export
			}
			if p.Module != nil && (p.Module.Path == mod || p.Module.Path == m.mod) && !seen[p.ImportPath] && len(p.GoFiles) > 0 {
				seen[p.ImportPath] = true
				srcPkgs = append(srcPkgs, p)
			}
		}
	}
	m.imp = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	for _, p := range srcPkgs {
		dp := &deadPkg{listedPkg: p, info: &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			dp.files = append(dp.files, f)
		}
		conf := types.Config{Importer: m.imp}
		if dp.types, err = conf.Check(p.ImportPath, m.fset, dp.files, dp.info); err != nil {
			return nil, fmt.Errorf("type-check %s: %w", p.ImportPath, err)
		}
		m.pkgs = append(m.pkgs, dp)
	}
	return m, nil
}

// deadAPI returns "file:line: pkg.Name" (or pkg.Type.Method) for each
// exported name, and each unexported function or method, declared in
// root's root package or under its internal/ that no non-test file of root's module or of a
// consumer module (deadLoad) uses. Unexported consts, vars, types and
// fields are not candidates: enum members are used only by position. A
// use inside the name's own declaration does not count.
// It also returns "file:line: pkg.Type.Field" for each exported,
// untagged, non-embedded field of an exported struct type there that
// none of them writes (deadFieldWrites); a decoder writes tagged
// fields. The root package's exports are candidates too, decided by
// deadRootLive alone. Exempt are methods that satisfy an interface
// method some non-test file calls or a deadStdIfaces interface,
// exported methods and fields of types a live root alias denotes,
// everything in the exempt packages, and the allow-list.
func deadAPI(root string, consumers []string, exemptPkgs []string, allow map[string]string) ([]string, error) {
	m, err := deadLoad(root, consumers)
	if err != nil {
		return nil, err
	}
	fset, imp, rootMod := m.fset, m.imp, m.mod

	// Every use of a named object in a non-test file, and every
	// interface whose methods are called.
	used, usedOutside := map[string]bool{}, map[string]bool{}
	ifaces := map[string]*deadIface{}
	for _, p := range m.pkgs {
		files, info := p.files, p.info
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
		for _, f := range files {
			for _, d := range f.Decls {
				deadFieldWrites(info, d, used)
			}
		}
		for id, obj := range info.Uses {
			if self[id] {
				continue
			}
			if k := deadKey(obj); k != "" {
				used[k] = true
				if p.ImportPath != rootMod {
					usedOutside[k] = true
				}
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
	rootLive := deadRootLive(m, usedOutside)
	type cand struct {
		key string
		pos token.Pos
	}
	var cands []cand
	for _, p := range m.pkgs {
		if p.Module.Path != rootMod {
			continue
		}
		pkg := p.types
		internal := p.ImportPath == rootMod || strings.HasPrefix(p.ImportPath, rootMod+"/internal/")
		for _, ex := range exemptPkgs {
			if p.ImportPath == ex || strings.HasPrefix(p.ImportPath, ex+"/") {
				internal = false
			}
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if p.ImportPath == rootMod && rootLive[deadKey(obj)] {
				if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
					if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
						for i := 0; i < n.NumMethods(); i++ {
							if m := n.Method(i); m.Exported() {
								live[deadKey(m)] = true
							}
						}
						if st, ok := n.Underlying().(*types.Struct); ok {
							for i := 0; i < st.NumFields(); i++ {
								live[deadFieldKey(n, st.Field(i))] = true
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
			if st, ok := obj.Type().Underlying().(*types.Struct); ok && n != nil && obj.Exported() {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() && st.Tag(i) == "" {
						cands = append(cands, cand{deadFieldKey(n, f), f.Pos()})
					}
				}
			}
		}
	}
	var dead []string
	for _, c := range cands {
		if rl, root := rootLive[c.key]; rl || !root && (used[c.key] || live[c.key] || allow[c.key] != "") {
			continue
		}
		pos := fset.Position(c.pos)
		rel, err := filepath.Rel(m.root, pos.Filename)
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

// deadRootLive maps the key of every exported name of the module's root
// package to whether it is live. A root export is live when a non-test
// file outside the root package names it (usedOutside), or when the
// signature or type declaration of a live root export names it, or
// when it aliases an exported-field type of a type a live root alias
// denotes, directly or through a composite; computed as a fixed point.
// Uses inside the root package count for nothing else: a façade name
// only the façade names is dead.
func deadRootLive(m *deadModule, usedOutside map[string]bool) map[string]bool {
	live := map[string]bool{}
	var root *deadPkg
	for _, p := range m.pkgs {
		if p.ImportPath == m.mod {
			root = p
		}
	}
	if root == nil {
		return live
	}
	scope := root.types.Scope()
	decls := map[types.Object]ast.Expr{} // root name → its signature or type expression
	for _, f := range root.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					decls[root.info.Defs[d.Name]] = d.Type
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						decls[root.info.Defs[ts.Name]] = ts.Type
					}
				}
			}
		}
	}
	aliases := map[string][]types.Object{} // denoted named type → its root aliases
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		live[deadKey(obj)] = false
		if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				k := deadKey(n.Origin().Obj())
				aliases[k] = append(aliases[k], obj)
			}
		}
	}
	var mark func(obj types.Object)
	// fields marks the root aliases of the named types that the exported
	// fields of an aliased internal type reach.
	visited := map[string]bool{}
	var fields func(t types.Type)
	fields = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Pointer:
			fields(t.Elem())
		case *types.Slice:
			fields(t.Elem())
		case *types.Array:
			fields(t.Elem())
		case *types.Map:
			fields(t.Key())
			fields(t.Elem())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if t.Field(i).Exported() {
					fields(t.Field(i).Type())
				}
			}
		case *types.Named:
			k := deadKey(t.Origin().Obj())
			if visited[k] {
				return
			}
			visited[k] = true
			for _, a := range aliases[k] {
				mark(a)
			}
			fields(t.Underlying())
		}
	}
	mark = func(obj types.Object) {
		k := deadKey(obj)
		if live[k] {
			return
		}
		live[k] = true
		if e, ok := decls[obj]; ok {
			ast.Inspect(e, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if u := root.info.Uses[id]; u != nil && u.Exported() && scope.Lookup(u.Name()) == u {
						mark(u)
					}
				}
				return true
			})
		}
		if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
			fields(types.Unalias(tn.Type()).Underlying())
		}
	}
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() && usedOutside[deadKey(obj)] {
			mark(obj)
		}
	}
	return live
}

// seriesWithoutReader returns "internal/obs/names.go:line: Name" for
// each constant declared in root's internal/obs/names.go that no
// non-test file of root's module or of a consumer module (deadLoad)
// uses other than as the first argument of a registration call: an
// obs.New* function or a deadRegisterMethods method of obs.Registry.
func seriesWithoutReader(root string, consumers []string) ([]string, error) {
	m, err := deadLoad(root, consumers)
	if err != nil {
		return nil, err
	}
	obsPath := m.mod + "/internal/obs"
	read := map[string]bool{}
	for _, p := range m.pkgs {
		registered := map[*ast.Ident]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && len(call.Args) > 0 && seriesRegistration(p.info, call, obsPath) {
					switch a := ast.Unparen(call.Args[0]).(type) {
					case *ast.Ident:
						registered[a] = true
					case *ast.SelectorExpr:
						registered[a.Sel] = true
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			if _, ok := obj.(*types.Const); ok && !registered[id] {
				read[deadKey(obj)] = true
			}
		}
	}
	var unread []string
	for _, p := range m.pkgs {
		if p.ImportPath != obsPath {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || read[deadKey(c)] {
				continue
			}
			if pos := m.fset.Position(c.Pos()); filepath.Base(pos.Filename) == "names.go" {
				unread = append(unread, fmt.Sprintf("internal/obs/names.go:%d: %s", pos.Line, name))
			}
		}
	}
	sort.Strings(unread)
	return unread, nil
}

// deadRegisterMethods are the obs.Registry methods whose first argument
// names the series they register.
var deadRegisterMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "CounterVec": true, "HistogramVec": true,
}

// seriesRegistration reports whether call registers a series: it calls
// a New* function of the obs package at obsPath, or one of
// deadRegisterMethods on its Registry.
func seriesRegistration(info *types.Info, call *ast.CallExpr, obsPath string) bool {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return false
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != obsPath {
		return false
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		return strings.HasPrefix(fn.Name(), "New")
	}
	return deadRegisterMethods[fn.Name()] && deadKey(fn) == obsPath+".Registry."+fn.Name()
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

// deadFieldWrites marks in used every field of a named struct type that
// decl writes: as a composite-literal element, keyed or positional, or
// as an assignment or ++/-- target. A function's writes to the fields of
// a struct it receives by value, as its receiver or as a parameter, only
// change its copy (the withDefaults idiom, and a constructor defaulting
// its Config), so they do not count.
func deadFieldWrites(info *types.Info, decl ast.Decl, used map[string]bool) {
	copies := map[types.Object]bool{}
	if fd, ok := decl.(*ast.FuncDecl); ok {
		sig := info.Defs[fd.Name].Type().(*types.Signature)
		vars := []*types.Var{sig.Recv()}
		for i := 0; i < sig.Params().Len(); i++ {
			vars = append(vars, sig.Params().At(i))
		}
		for _, v := range vars {
			if v == nil {
				continue
			}
			if _, ok := v.Type().Underlying().(*types.Struct); ok {
				copies[v] = true
			}
		}
	}
	mark := func(n *types.Named, f *types.Var) {
		if n != nil {
			used[deadFieldKey(n, f)] = true
		}
	}
	target := func(e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return
		}
		id, _ := ast.Unparen(sel.X).(*ast.Ident)
		copied := id != nil && copies[info.Uses[id]]
		var n *types.Named
		var f *types.Var
		t := s.Recv()
		for _, i := range s.Index() {
			if p, ok := types.Unalias(t).(*types.Pointer); ok {
				t = p.Elem()
				copied = false
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return
			}
			n, _ = types.Unalias(t).(*types.Named)
			f = st.Field(i)
			t = f.Type()
		}
		if !copied {
			mark(n, f)
		}
	}
	ast.Inspect(decl, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CompositeLit:
			t := info.TypeOf(node)
			if p, ok := types.Unalias(t).(*types.Pointer); ok {
				t = p.Elem()
			}
			n, _ := types.Unalias(t).(*types.Named)
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range node.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						mark(n, f)
					}
				} else {
					mark(n, st.Field(i))
				}
			}
		case *ast.AssignStmt:
			for _, e := range node.Lhs {
				target(e)
			}
		case *ast.IncDecStmt:
			target(node.X)
		}
		return true
	})
}

// deadFieldKey names field f of struct type n pkgpath.Type.Field.
func deadFieldKey(n *types.Named, f *types.Var) string {
	o := n.Origin().Obj()
	return o.Pkg().Path() + "." + o.Name() + "." + f.Name()
}
