package analysis

// Static TCB accounting — the repo's analogue of the paper's Section 7.1
// measurement ("the TCB of an application using Flicker can be as few as
// 250 lines, plus the application's own logic"). For every PAL entry point
// in the module, flickervet -tcbreport computes the statically reachable
// function set and its line count, so "how much code runs inside the
// isolated session" is a number CI checks against a reviewed budget file
// instead of a claim that silently rots as hot-path optimizations pile
// code into internal/pal and internal/palcrypto.
//
// The closure is modIndex's, the one flicker extract emits. It is
// conservative: every referenced function counts as reachable (function
// values included, and what a used package-level variable's initializer
// names, so phase tables and dispatch maps count), and interface method
// calls expand to every module type implementing the interface
// (class-hierarchy analysis). CHA only admits implementing types the
// caller's package can name (its transitive import closure): a package
// cannot construct values of types it cannot import, and this module's
// layering never injects higher-layer values downward, so e.g. an error
// type defined in untrusted serving code does not inflate the measured
// closure of internal/core just because both satisfy the universe error
// interface. The session-engine pseudo-entry stops at its parameter, the
// PAL, as the paper separates the Flicker infrastructure from each
// application's PAL, and at the platform it drives (engineBoundary).

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// TCBReport is the serialized output of flickervet -tcbreport.
type TCBReport struct {
	// Module is the module path the report covers.
	Module string `json:"module"`
	// Entries holds one accounting per PAL entry point, sorted by name.
	Entries []TCBEntry `json:"entries"`
}

// TCBEntry is one PAL's (or the engine's) reachable-code accounting.
type TCBEntry struct {
	// PAL is the entry's name: the PAL's wire name where extractable
	// (ssh-auth, flicker-ca, rootkit-detector, boinc-factor), otherwise
	// pkg.Type. The session engine reports as "session-engine".
	PAL string `json:"pal"`
	// EntryPoints are the functions reachability starts from.
	EntryPoints []string `json:"entry_points"`
	// Functions is the size of the reachable module-function set.
	Functions int `json:"functions"`
	// Lines sums the source lines of every reachable function declaration
	// — the Section 7.1 quantity.
	Lines int `json:"lines"`
	// Packages breaks Lines down by package, the analogue of the paper's
	// Figure 6 module inventory.
	Packages map[string]TCBPackage `json:"packages"`
	// BudgetLines is the tracked budget, 0 when no budget file was given.
	BudgetLines int `json:"budget_lines,omitempty"`
	// Funcs lists every counted function with its line count, sorted by
	// name, so a reviewer can audit the closure.
	Funcs []TCBFunc `json:"funcs"`
}

// TCBFunc is one counted function: its funcID and its declaration's
// source lines.
type TCBFunc struct {
	Func  string `json:"func"`
	Lines int    `json:"lines"`
}

// TCBPackage is one package's share of an entry's TCB.
type TCBPackage struct {
	Functions int `json:"functions"`
	Lines     int `json:"lines"`
}

// sessionEngineEntry names the infrastructure pseudo-entry.
const sessionEngineEntry = "session-engine"

// BuildTCBReport computes the per-PAL reachable-code accounting over the
// loaded module packages.
func BuildTCBReport(l *Loader, pkgs []*Package) (*TCBReport, error) {
	ix := newModIndex(l, pkgs, false)
	palIface, batchIface, err := ix.palInterfaces()
	if err != nil {
		return nil, err
	}

	rep := &TCBReport{Module: l.Module}
	for _, e := range ix.findEntries(palIface, batchIface) {
		rep.Entries = append(rep.Entries, ix.account(*e, palIface))
	}
	sort.Slice(rep.Entries, func(i, j int) bool { return rep.Entries[i].PAL < rep.Entries[j].PAL })
	return rep, nil
}

// palInterfaces resolves the pal.PAL and pal.BatchPAL interface types.
func (ix *modIndex) palInterfaces() (palIface, batchIface *types.Interface, err error) {
	palPkg := ix.l.Package(ix.l.Module + "/internal/pal")
	if palPkg == nil || palPkg.Types == nil {
		return nil, nil, fmt.Errorf("analysis: %s/internal/pal not loaded", ix.l.Module)
	}
	lookup := func(name string) (*types.Interface, error) {
		obj := palPkg.Types.Scope().Lookup(name)
		if obj == nil {
			return nil, fmt.Errorf("analysis: pal.%s not found", name)
		}
		iface, ok := obj.Type().Underlying().(*types.Interface)
		if !ok {
			return nil, fmt.Errorf("analysis: pal.%s is not an interface", name)
		}
		return iface, nil
	}
	if palIface, err = lookup("PAL"); err != nil {
		return nil, nil, err
	}
	if batchIface, err = lookup("BatchPAL"); err != nil {
		return nil, nil, err
	}
	return palIface, batchIface, nil
}

// tcbEntrySpec is one discovered entry before accounting.
type tcbEntrySpec struct {
	name    string
	entries []*types.Func
	// engine marks the session-engine pseudo-entry, which does not expand
	// the PAL interfaces.
	engine bool
}

// findEntries discovers PAL entry points, by entry name: named app types
// implementing pal.PAL, pal.Func composite literals, and the
// session-engine pseudo-entry.
func (ix *modIndex) findEntries(palIface, batchIface *types.Interface) map[string]*tcbEntrySpec {
	specs := make(map[string]*tcbEntrySpec)
	// add merges entries sharing a name (two pal.Func literals may share a
	// PALName).
	add := func(name string, engine bool, entries ...*types.Func) {
		if len(entries) == 0 {
			return
		}
		if s := specs[name]; s != nil {
			s.entries = append(s.entries, entries...)
			return
		}
		specs[name] = &tcbEntrySpec{name: name, entries: entries, engine: engine}
	}
	appsPrefix := ix.l.Module + "/internal/apps/"

	// Named PAL implementations in app packages.
	for _, named := range ix.named {
		tn := named.Obj()
		if tn.Pkg() == nil || !strings.HasPrefix(tn.Pkg().Path(), appsPrefix) {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		recv := types.Type(named)
		if !types.Implements(recv, palIface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, palIface) {
				continue
			}
		}
		methods := []string{"Run"}
		if types.Implements(recv, batchIface) {
			methods = append(methods, "OpenBatch", "RunRequest", "CloseBatch")
		}
		add(ix.palNameOf(recv, tn), false, ix.methods(recv, tn.Pkg(), methods...)...)
	}

	// pal.Func composite literals (adapter PALs) in app packages.
	for _, pkg := range ix.pkgs {
		if pkg.Types == nil || !strings.HasPrefix(pkg.Path, appsPrefix) {
			continue
		}
		for _, f := range pkg.Files {
			var enclosing *types.Func
			ast.Inspect(f, func(n ast.Node) bool {
				if fd, ok := n.(*ast.FuncDecl); ok {
					enclosing, _ = pkg.Info.Defs[fd.Name].(*types.Func)
				}
				cl, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				t := pkg.Info.TypeOf(cl)
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if named, ok := t.(*types.Named); !ok || !isPkgObject(named.Obj(), ix.l.Module+"/internal/pal", "Func") {
					return true
				}
				name := ""
				var entry *types.Func
				for _, elt := range cl.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					switch types.ExprString(kv.Key) {
					case "PALName":
						// The value may be a literal or a named constant;
						// the type-checker folded both.
						if v := pkg.Info.Types[kv.Value].Value; v != nil && v.Kind() == constant.String {
							name = constant.StringVal(v)
						}
					case "Fn":
						entry = calleeFunc(pkg.Info, kv.Value)
						if _, lit := ast.Unparen(kv.Value).(*ast.FuncLit); lit {
							// A literal body belongs to its enclosing
							// constructor; account from there.
							entry = enclosing
						}
					}
				}
				if entry != nil && ix.decls[entry] != nil {
					if name == "" {
						name = entry.Name()
					}
					add(name, false, entry)
				}
				return true
			})
		}
	}

	// The session engine: what the platform itself executes around a PAL.
	if core := ix.l.Package(ix.l.Module + "/internal/core"); core != nil && core.Types != nil {
		if obj := core.Types.Scope().Lookup("Platform"); obj != nil {
			add(sessionEngineEntry, true, ix.methods(types.NewPointer(obj.Type()), core.Types,
				"RunSession", "RunSessionConcurrent", "RunSessionBatch")...)
		}
	}
	return specs
}

// methods returns recv's declared methods of the given names.
func (ix *modIndex) methods(recv types.Type, pkg *types.Package, names ...string) []*types.Func {
	var out []*types.Func
	for _, m := range names {
		obj, _, _ := types.LookupFieldOrMethod(recv, true, pkg, m)
		if f, ok := obj.(*types.Func); ok && ix.decls[f] != nil {
			out = append(out, f)
		}
	}
	return out
}

// palNameOf extracts the PAL's wire name from a trivial Name() method
// (a single return of a string constant), falling back to pkg.Type.
func (ix *modIndex) palNameOf(recv types.Type, tn *types.TypeName) string {
	for _, f := range ix.methods(recv, tn.Pkg(), "Name") {
		if body := ix.decls[f].Body; body != nil && len(body.List) == 1 {
			if ret, ok := body.List[0].(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
				if v := ix.pkgOf[f].Info.Types[ret.Results[0]].Value; v != nil && v.Kind() == constant.String {
					return constant.StringVal(v)
				}
			}
		}
	}
	return tn.Pkg().Name() + "." + tn.Name()
}

// engineBoundary lists the packages, under internal/, where the session
// engine's closure stops, as it stops at the PAL's methods: the simulated
// machine (CPU, memory, TIS), the untrusted OS (kernel, flickermod) and
// the simulated clock are what the engine drives, not code the SLB Core
// carries. The PAL entries count them: a PAL's closure is its own.
const engineBoundary = "hw/cpu hw/memory hw/tis kernel simtime flickermod"

// account computes one entry's reachable set and line totals.
func (ix *modIndex) account(spec tcbEntrySpec, palIface *types.Interface) TCBEntry {
	var stop func(*types.Func) bool
	if spec.engine {
		outside := make(map[string]bool)
		for _, p := range strings.Fields(engineBoundary) {
			outside[ix.l.Module+"/internal/"+p] = true
		}
		// The PAL is the engine's parameter, not its TCB.
		stop = func(f *types.Func) bool {
			return outside[f.Pkg().Path()] || isPALMethod(f, palIface)
		}
	}

	entry := TCBEntry{PAL: spec.name, Packages: make(map[string]TCBPackage)}
	for _, f := range spec.entries {
		entry.EntryPoints = append(entry.EntryPoints, funcID(f))
	}
	sort.Strings(entry.EntryPoints)
	for f := range ix.closure(spec.entries, stop) {
		decl := ix.decls[f]
		pkg := ix.pkgOf[f]
		start := ix.l.Fset.Position(decl.Pos()).Line
		end := ix.l.Fset.Position(decl.End()).Line
		lines := end - start + 1
		entry.Functions++
		entry.Lines += lines
		entry.Funcs = append(entry.Funcs, TCBFunc{Func: funcID(f), Lines: lines})
		pp := entry.Packages[pkg.Path]
		pp.Functions++
		pp.Lines += lines
		entry.Packages[pkg.Path] = pp
	}
	sort.Slice(entry.Funcs, func(i, j int) bool { return entry.Funcs[i].Func < entry.Funcs[j].Func })
	return entry
}

// isPALMethod reports whether f is a concrete implementation of a
// pal.PAL/pal.BatchPAL interface method (Run, OpenBatch, RunRequest,
// CloseBatch, Name, Code, ExtraCode) on a type implementing pal.PAL.
func isPALMethod(f *types.Func, palIface *types.Interface) bool {
	sig := f.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	switch f.Name() {
	case "Run", "OpenBatch", "RunRequest", "CloseBatch", "Name", "Code", "ExtraCode":
	default:
		return false
	}
	return types.Implements(sig.Recv().Type(), palIface)
}

// funcID renders a stable human-readable function identifier:
// pkgpath.Func or pkgpath.(Recv).Method.
func funcID(f *types.Func) string {
	sig := f.Type().(*types.Signature)
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			return fmt.Sprintf("%s.(%s).%s", pkg, named.Obj().Name(), f.Name())
		}
	}
	return pkg + "." + f.Name()
}

// --- Budgets ----------------------------------------------------------------

// TCBBudget is the tracked per-PAL line budget (tcb_budget.json).
type TCBBudget struct {
	// Comment documents the workflow for humans editing the file.
	Comment string `json:"comment,omitempty"`
	// Budgets maps entry name -> maximum reachable lines.
	Budgets map[string]int `json:"budgets"`
	// ForbiddenPackages lists package path prefixes that must never appear
	// in any PAL's reachable closure. Untrusted serving infrastructure
	// (the attestation fabric, HTTP surfaces) lives here: if a PAL can
	// reach it, the measured TCB silently absorbed the control plane.
	ForbiddenPackages []string `json:"forbidden_packages,omitempty"`
}

// LoadTCBBudget reads a budget file.
func LoadTCBBudget(path string) (*TCBBudget, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b TCBBudget
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("analysis: parsing %s: %w", filepath.Base(path), err)
	}
	if b.Budgets == nil {
		return nil, fmt.Errorf("analysis: %s has no budgets object", filepath.Base(path))
	}
	return &b, nil
}

// CheckTCBBudget annotates the report with budgets and returns one error
// per violation: an entry over its budget, a budget more than 25% above
// its entry (slack that would hide growth), an entry with no budget (TCB
// growth must be a reviewed, deliberate act — new PALs get a budget line
// in the same change), or a stale budget naming no current entry.
func CheckTCBBudget(rep *TCBReport, budget *TCBBudget) []error {
	var errs []error
	seen := make(map[string]bool)
	for i := range rep.Entries {
		e := &rep.Entries[i]
		seen[e.PAL] = true
		max, ok := budget.Budgets[e.PAL]
		if !ok {
			errs = append(errs, fmt.Errorf(
				"tcb: %q has no budget in tcb_budget.json; add one deliberately (currently %d lines)",
				e.PAL, e.Lines))
			continue
		}
		e.BudgetLines = max
		if e.Lines > max {
			errs = append(errs, fmt.Errorf(
				"tcb: %q reachable TCB is %d lines, over its %d-line budget; "+
					"shrink the closure or raise the budget in a reviewed change",
				e.PAL, e.Lines, max))
		}
		if max*4 > e.Lines*5 {
			errs = append(errs, fmt.Errorf(
				"tcb: %q budget of %d lines is more than 25%% above its %d-line TCB; lower it",
				e.PAL, max, e.Lines))
		}
		for pkg := range e.Packages {
			for _, forbidden := range budget.ForbiddenPackages {
				if pkg == forbidden || strings.HasPrefix(pkg, forbidden+"/") {
					errs = append(errs, fmt.Errorf(
						"tcb: %q reaches forbidden package %s (%d lines); "+
							"PAL-measured code must not depend on untrusted serving infrastructure",
						e.PAL, pkg, e.Packages[pkg].Lines))
				}
			}
		}
	}
	var stale []string
	for name := range budget.Budgets {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		errs = append(errs, fmt.Errorf("tcb: budget entry %q matches no PAL in the module; remove it", name))
	}
	return errs
}
