package analysis

import (
	"encoding/json"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The reachability check: the paper's TCB rule (only code that runs
// belongs in it) applied to the whole program. A function no binary
// reaches is either deleted or listed in reach_allow.json with the test
// that runs it and the claim it demonstrates.

// reachAllowFile is the module-root list of kept unreached functions.
const reachAllowFile = "reach_allow.json"

// reachEntry is one kept unreached function: its funcID, the test that
// runs it, and the paper section or property it shows.
type reachEntry struct {
	Func  string `json:"func"`
	Test  string `json:"test"`
	Claim string `json:"claim"`
}

// reachRoots returns what runs without a module caller: every main, every
// init, every function a package-level initializer names, and every method
// that implements a standard-library interface (error, fmt.Stringer,
// http.Handler, sort.Interface, ...), which the standard library calls.
func reachRoots(ix *modIndex) []*types.Func {
	var roots []*types.Func
	seen := make(map[types.Object]bool)
	for f, fd := range ix.decls {
		if fd.Recv == nil && (f.Name() == "init" || f.Name() == "main" && f.Pkg().Name() == "main") {
			roots = append(roots, f)
		}
	}
	for _, pkg := range ix.pkgs {
		for _, in := range pkg.Info.InitOrder {
			ix.refs(pkg, in.Rhs, seen, &roots)
		}
	}
	byMethod := stdInterfaces(ix.l)
	for f := range ix.decls {
		recv := f.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		for _, iface := range byMethod[f.Name()] {
			if types.Implements(recv.Type(), iface) {
				roots = append(roots, f)
				break
			}
		}
	}
	return roots
}

// stdInterfaces indexes by method name every interface the loaded
// standard-library packages (and what they import) declare, plus error.
func stdInterfaces(l *Loader) map[string][]*types.Interface {
	out := make(map[string][]*types.Interface)
	add := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			out[iface.Method(i).Name()] = append(out[iface.Method(i).Name()], iface)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := make(map[*types.Package]bool)
	var queue []*types.Package
	for _, p := range l.stdPkgs {
		queue = append(queue, p)
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if seen[p] {
			continue
		}
		seen[p] = true
		queue = append(queue, p.Imports()...)
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && tn.Type().(*types.Named).TypeParams() == nil {
				add(iface)
			}
		}
	}
	return out
}

// unreached returns the funcID and line count of every declared function
// in pkgs that no root reaches, interface calls expanded to every module
// implementor.
func unreached(l *Loader, pkgs []*Package) map[string]int {
	ix := newModIndex(l, pkgs, true)
	reach := ix.closure(reachRoots(ix), nil)
	out := make(map[string]int)
	for f, fd := range ix.decls {
		if !reach[f] {
			out[funcID(f)] = l.Fset.Position(fd.End()).Line - l.Fset.Position(fd.Pos()).Line + 1
		}
	}
	return out
}

// testFuncs returns the Test, Fuzz, Benchmark and Example functions the
// module's _test.go files define.
func testFuncs(t *testing.T, root string) map[string]bool {
	defined := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*)\(`)
	have := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range defined.FindAllStringSubmatch(string(src), -1) {
			have[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return have
}

// TestEveryFunctionReached fails on a function no binary reaches that
// reach_allow.json does not list, on a listed function that is reached
// (a stale entry), and on an entry whose test no _test.go file defines.
func TestEveryFunctionReached(t *testing.T) {
	l, pkgs := loadModule(t)
	data, err := os.ReadFile(filepath.Join(l.Root, reachAllowFile))
	if err != nil {
		t.Fatal(err)
	}
	var allow []reachEntry
	if err := json.Unmarshal(data, &allow); err != nil {
		t.Fatalf("parsing %s: %v", reachAllowFile, err)
	}
	tests := testFuncs(t, l.Root)
	dead := unreached(l, pkgs)
	listed := make(map[string]bool)
	for _, e := range allow {
		switch {
		case listed[e.Func]:
			t.Errorf("%s lists %s twice", reachAllowFile, e.Func)
		case dead[e.Func] == 0:
			t.Errorf("%s lists %s, which a binary reaches or no file declares: remove the entry", reachAllowFile, e.Func)
		}
		listed[e.Func] = true
		if !tests[e.Test] {
			t.Errorf("%s: %s names test %q, which no _test.go file defines", reachAllowFile, e.Func, e.Test)
		}
		if e.Claim == "" {
			t.Errorf("%s: %s states no claim", reachAllowFile, e.Func)
		}
	}
	var missing []string
	lines := 0
	for id, n := range dead {
		lines += n
		if !listed[id] {
			missing = append(missing, id)
		}
	}
	sort.Strings(missing)
	for _, id := range missing {
		t.Errorf("%s (%d lines) is reached from no binary: delete it, or list it in %s with its test and claim",
			id, dead[id], reachAllowFile)
	}
	t.Logf("%d unreached functions (%d lines), all listed in %s", len(dead), lines, reachAllowFile)
}

// TestReachFixture pins the check's three rules on a fixture: a method
// reached only through an interface a lower package declares is reached,
// an Error method that only satisfies error is a root, and an unreferenced
// function is reported.
func TestReachFixture(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDirAs(filepath.Join("testdata", "src", "reach"), "flicker/internal/reachfixture")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range l.Packages() {
		for _, te := range p.TypeErrors {
			t.Fatalf("fixture %s does not type-check: %v", p.Path, te)
		}
	}
	var got []string
	for id := range unreached(l, l.Packages()) {
		got = append(got, id)
	}
	sort.Strings(got)
	if want := pkg.Path + ".unreferenced"; strings.Join(got, " ") != want {
		t.Errorf("unreached = %v, want [%s]", got, want)
	}
	// Without the every-implementor switch, the import-closure filter the
	// TCB count keeps would miss the method the lower package calls.
	ix := newModIndex(l, l.Packages(), false)
	for f := range ix.closure(reachRoots(ix), nil) {
		if f.Name() == "Run" && f.Pkg() == pkg.Types {
			t.Errorf("import-closure CHA reached %s; the fixture no longer tests the switch", funcID(f))
		}
	}
}
