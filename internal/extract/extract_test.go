package extract

import (
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"flicker/internal/analysis"
)

// extractSrc writes src (file name -> source) as a module's one package
// and extracts target from it.
func extractSrc(t *testing.T, src map[string]string, target string) (*Result, error) {
	t.Helper()
	dir := t.TempDir()
	src["go.mod"] = "module fixture\n"
	for name, body := range src {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return Extract(dir, target)
}

const appSrc = `package app

import (
	"fmt"
	"os"
)

const blockSize = 64

type digest struct {
	state [4]uint32
	buf   []byte
}

func (d *digest) reset() {
	d.state = initState
	d.buf = nil
}

func (d *digest) update(p []byte) {
	d.buf = append(d.buf, p...)
}

var initState = [4]uint32{1, 2, 3, 4}

func hashPassword(pw string, salt string) []byte {
	d := &digest{}
	d.reset()
	d.update([]byte(salt))
	d.update([]byte(pw))
	return finalize(d)
}

func finalize(d *digest) []byte {
	out := make([]byte, blockSize)
	for i, s := range d.state {
		out[i] = byte(s)
	}
	return out
}

func mainLoop() {
	for {
		pw := readLine()
		fmt.Println(hashPassword(pw, "salt"))
	}
}

func readLine() string {
	buf := make([]byte, 128)
	n, _ := os.Stdin.Read(buf)
	return string(buf[:n])
}

func unrelatedHelper() int { return 42 }
`

func TestExtractClosure(t *testing.T) {
	res, err := extractSrc(t, map[string]string{"app.go": appSrc}, "hashPassword")
	if err != nil {
		t.Fatal(err)
	}
	src := string(res.Source)
	// The closure: hashPassword, finalize, digest (+methods), blockSize,
	// initState.
	for _, want := range []string{"func hashPassword", "func finalize", "type digest",
		"const blockSize", "var initState", "func (d *digest) reset", "func (d *digest) update"} {
		if !strings.Contains(src, want) {
			t.Errorf("extracted source missing %q", want)
		}
	}
	// Unrelated code stays out.
	for _, bad := range []string{"mainLoop", "readLine", "unrelatedHelper"} {
		if strings.Contains(src, bad) {
			t.Errorf("extracted source includes unrelated %q", bad)
		}
	}
	// No external references for this target.
	if len(res.External) != 0 {
		t.Errorf("external = %v, want none", res.External)
	}
	// The output must be parseable Go.
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "out.go", res.Source, 0); err != nil {
		t.Fatalf("extracted source does not parse: %v\n%s", err, src)
	}
}

func TestExtractReportsExternalReferences(t *testing.T) {
	// Extracting mainLoop drags in fmt.Println and os.Stdin — the Go
	// analogue of the paper's "by default, a PAL cannot call printf or
	// malloc".
	res, err := extractSrc(t, map[string]string{"app.go": appSrc}, "mainLoop")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(res.External, ",")
	for _, want := range []string{"fmt.Println", "os.Stdin"} {
		if !strings.Contains(got, want) {
			t.Errorf("external list %q missing %q", got, want)
		}
	}
	if !strings.Contains(string(res.Source), "func readLine") {
		t.Error("transitive callee readLine missing")
	}
}

func TestExtractErrors(t *testing.T) {
	if _, err := extractSrc(t, map[string]string{"a.go": appSrc}, "nope"); err == nil {
		t.Error("missing target accepted")
	}
	if _, err := extractSrc(t, map[string]string{"a.go": appSrc}, "blockSize"); err == nil {
		t.Error("non-function target accepted")
	}
	if _, err := extractSrc(t, map[string]string{"a.go": "not go code {{{"}, "x"); err == nil {
		t.Error("unparseable source accepted")
	}
	if _, err := extractSrc(t, map[string]string{
		"a.go": "package a\nfunc f() {}",
		"b.go": "package b\nfunc g() {}",
	}, "f"); err == nil {
		t.Error("mixed packages accepted")
	}
}

func TestExtractMultiFile(t *testing.T) {
	res, err := extractSrc(t, map[string]string{
		"one.go": "package p\n\nfunc entry() int { return helper() + 1 }\n",
		"two.go": "package p\n\nfunc helper() int { return shared }\n\nvar shared = 7\n",
	}, "entry")
	if err != nil {
		t.Fatal(err)
	}
	src := string(res.Source)
	for _, want := range []string{"func entry", "func helper", "var shared"} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q", want)
		}
	}
	if len(res.Included) != 3 {
		t.Errorf("included = %v", res.Included)
	}
}

func TestExtractDeterministic(t *testing.T) {
	a, err := extractSrc(t, map[string]string{"app.go": appSrc}, "hashPassword")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := extractSrc(t, map[string]string{"app.go": appSrc}, "hashPassword")
	if string(a.Source) != string(b.Source) {
		t.Fatal("extraction not deterministic")
	}
}

// splitFuncID splits a TCB report function name, pkgpath.Func or
// pkgpath.(Recv).Method, into its package path and an extract target.
func splitFuncID(id string) (pkgPath, target string) {
	slash := strings.LastIndex(id, "/")
	dot := slash + strings.Index(id[slash:], ".")
	return id[:dot], strings.NewReplacer("(", "", ")", "").Replace(id[dot+1:])
}

// TestExtractMatchesTCBClosure cross-checks the two users of the one
// closure: for each app PAL, the functions the TCB report counts in the
// PAL's own package are exactly the functions extract emits for its entry
// methods.
func TestExtractMatchesTCBClosure(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.BuildTCBReport(l, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range rep.Entries {
		if e.PAL == "session-engine" {
			continue // stops at the PAL and the platform; extract does not
		}
		pkgPath, _ := splitFuncID(e.EntryPoints[0])
		var targets, want []string
		for _, id := range e.EntryPoints {
			_, target := splitFuncID(id)
			targets = append(targets, target)
		}
		for _, f := range e.Funcs {
			if p, name := splitFuncID(f.Func); p == pkgPath {
				want = append(want, name)
			}
		}
		res, err := Extract(filepath.Join(l.Root, strings.TrimPrefix(pkgPath, l.Module)), targets...)
		if err != nil {
			t.Fatalf("%s: %v", e.PAL, err)
		}
		scope := l.Package(pkgPath).Types.Scope()
		var got []string
		for _, name := range res.Included {
			if _, isFunc := scope.Lookup(name).(*types.Func); isFunc || strings.Contains(name, ".") {
				got = append(got, name)
			}
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: extract emits functions\n%v\nthe TCB closure counts\n%v", e.PAL, got, want)
		}
		checked++
	}
	if checked < 5 {
		t.Errorf("cross-checked %d app PAL entries, want at least 5", checked)
	}
}

// TestExtractPhaseBodyStaysSmall pins method precision: a session phase
// body reaches none of the platform's entry points, which the types it
// uses declare.
func TestExtractPhaseBodyStaysSmall(t *testing.T) {
	res, err := Extract(filepath.Join("..", "core"), "extendPCRBody")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range res.Included {
		switch name {
		case "Platform.RunSessionBatch", "Platform.AddObserver", "Platform.RunSession":
			t.Errorf("extract of extendPCRBody emits %s", name)
		}
	}
	if !strings.Contains(string(res.Source), "func extendPCRBody") {
		t.Error("extract of extendPCRBody omits the target")
	}
}
