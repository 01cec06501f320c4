package analysis

import (
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// loadModule loads the whole module once for the TCB tests.
func loadModule(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	return l, pkgs
}

func TestTCBReportEntries(t *testing.T) {
	l, pkgs := loadModule(t)
	rep, err := BuildTCBReport(l, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]TCBEntry)
	for _, e := range rep.Entries {
		byName[e.PAL] = e
	}
	// Every shipped PAL and the engine pseudo-entry must be discovered.
	for _, want := range []string{
		"ssh-auth", "flicker-ca", "rootkit-detector", "boinc-factor", sessionEngineEntry,
	} {
		e, ok := byName[want]
		if !ok {
			t.Errorf("missing TCB entry %q (have %v)", want, names(rep))
			continue
		}
		if e.Functions == 0 || e.Lines == 0 {
			t.Errorf("%q: empty reachable set (%d funcs, %d lines)", want, e.Functions, e.Lines)
		}
	}
	// The engine entry must not absorb PAL application logic: its closure
	// excludes the pal.PAL interface expansion, so it must be far smaller
	// than any application's and must not include app packages.
	eng := byName[sessionEngineEntry]
	for pkg := range eng.Packages {
		if strings.Contains(pkg, "/internal/apps/") {
			t.Errorf("session-engine TCB includes app package %s", pkg)
		}
	}
	if ssh, ok := byName["ssh-auth"]; ok && eng.Lines >= ssh.Lines {
		t.Errorf("session-engine (%d lines) should be smaller than ssh-auth's closure (%d lines)",
			eng.Lines, ssh.Lines)
	}
}

// TestClosureFollowsVariables pins the closure's reach through function
// values: a phase table held in a variable, a dispatch map reached through
// a second variable, and a method value.
func TestClosureFollowsVariables(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDirAs(filepath.Join("testdata", "src", "closure"), "flicker/internal/closurefixture")
	if err != nil {
		t.Fatal(err)
	}
	for _, te := range pkg.TypeErrors {
		t.Fatalf("fixture does not type-check: %v", te)
	}
	for root, want := range map[string]string{
		"RunPhases": "RunPhases firstBody secondBody",
		"Dispatch":  "Dispatch double square",
		"Count":     "Count incr",
	} {
		var got []string
		for f := range Closure(l, pkg.Types.Scope().Lookup(root).(*types.Func)) {
			got = append(got, f.Name())
		}
		sort.Strings(got)
		if strings.Join(got, " ") != want {
			t.Errorf("closure of %s = %v, want %s", root, got, want)
		}
	}
}

func TestTCBBudgetCheck(t *testing.T) {
	rep := &TCBReport{Module: "flicker", Entries: []TCBEntry{
		{PAL: "ssh-auth", Lines: 2600, Functions: 10},
		{PAL: "new-pal", Lines: 100, Functions: 2},
	}}
	budget := &TCBBudget{Budgets: map[string]int{
		"ssh-auth": 2500, // under-provisioned: over-budget error
		"gone-pal": 1,    // stale: names no current entry
		// new-pal intentionally missing: unbudgeted-entry error
	}}
	errs := CheckTCBBudget(rep, budget)
	if len(errs) != 3 {
		t.Fatalf("got %d errors, want 3: %v", len(errs), errs)
	}
	joined := errs[0].Error() + errs[1].Error() + errs[2].Error()
	for _, frag := range []string{"over its 2500-line budget", "no budget", "gone-pal"} {
		if !strings.Contains(joined, frag) {
			t.Errorf("errors missing %q: %v", frag, errs)
		}
	}
	if rep.Entries[0].BudgetLines != 2500 {
		t.Errorf("budget not annotated on report entry: %+v", rep.Entries[0])
	}

	// A sufficient budget passes clean.
	rep2 := &TCBReport{Entries: []TCBEntry{{PAL: "ssh-auth", Lines: 2400}}}
	if errs := CheckTCBBudget(rep2, &TCBBudget{Budgets: map[string]int{"ssh-auth": 2500}}); len(errs) != 0 {
		t.Errorf("clean budget produced errors: %v", errs)
	}

	// The budget bites both ways: 25% above the measurement is the most
	// slack it may keep.
	rep3 := &TCBReport{Entries: []TCBEntry{{PAL: "ssh-auth", Lines: 2000}}}
	if errs := CheckTCBBudget(rep3, &TCBBudget{Budgets: map[string]int{"ssh-auth": 2500}}); len(errs) != 0 {
		t.Errorf("budget exactly 25%% above produced errors: %v", errs)
	}
	errs = CheckTCBBudget(rep3, &TCBBudget{Budgets: map[string]int{"ssh-auth": 2501}})
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "more than 25% above its 2000-line TCB") {
		t.Errorf("slack budget: got %v, want one more-than-25%% error", errs)
	}
}

func names(rep *TCBReport) []string {
	var out []string
	for _, e := range rep.Entries {
		out = append(out, e.PAL)
	}
	return out
}
