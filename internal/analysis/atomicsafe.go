package analysis

// atomicsafe: a field that is accessed atomically anywhere must be accessed
// atomically everywhere. -race only catches the interleavings a test
// happens to schedule; this is the static version of the discipline the
// lock-free hot path (metric cells, shard load counters, the coalescer's
// shared hold) relies on.
//
// Three rules, over a module-wide census (one function's atomic access
// must make a *different* file's plain access a finding, so this cannot be
// a per-package walk):
//
//  1. mixed access: a struct field that appears as &x.f in a sync/atomic
//     function call (atomic.LoadUint64(&x.f), CompareAndSwap..., ...) is
//     flagged at every other plain read or write of that field.
//  2. undisciplined neighbors: in a struct that holds atomic.* typed
//     fields (atomic.Bool, atomic.Uint64, ...) and no sync.Mutex/RWMutex,
//     a plain field written by two or more different functions is flagged
//     at its declaration — the struct opted into lock-free access, so a
//     multi-writer plain field next to the atomics is either a race or a
//     handoff protocol that deserves an //flickervet:allow with the
//     protocol named in the reason.
//  3. alignment: a field used with 64-bit sync/atomic functions must sit
//     at an 8-byte offset under 32-bit layout (GOARCH=386 sizes), the
//     classic pre-atomic.Int64 crash. Typed atomic.Int64/Uint64 fields are
//     exempt — the runtime aligns them.
//
// Constructor writes through composite literals do not count as plain
// writes (the object is not yet shared); writes via methods and functions
// do, wherever they live.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AtomicSafe reports mixed atomic/plain access to fields and 64-bit
// alignment hazards.
var AtomicSafe = &Analyzer{
	Name: "atomicsafe",
	Doc: "fields accessed via sync/atomic must be accessed atomically " +
		"everywhere, with 64-bit alignment under 32-bit layout",
	// The census is module-wide; the per-package pass only reports the
	// findings anchored in that package.
	Scope:       func(string) bool { return true },
	NeedsInterp: true,
	Run:         runAtomicSafe,
}

func runAtomicSafe(pass *Pass) {
	if pass.Interp == nil {
		return
	}
	for _, f := range pass.Interp.atomicFindings().findings {
		if f.pkg == pass.Pkg.Path {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
}

type atomicFinding struct {
	pos token.Pos
	pkg string
	msg string
}

type atomicCensus struct {
	findings []atomicFinding
}

// atomicFindings builds (once) the module-wide census and derived findings.
func (ip *Interp) atomicFindings() *atomicCensus {
	if ip.atomics != nil {
		return ip.atomics
	}
	c := &atomicCensus{}
	ip.atomics = c

	pkgs := make([]*Package, len(ip.idx.pkgs))
	copy(pkgs, ip.idx.pkgs)
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })

	// Pass 1: fields reached through sync/atomic function calls.
	type atomicUse struct {
		firstPos token.Pos
		is64     bool
	}
	fnFields := make(map[*types.Var]*atomicUse)
	consumed := make(map[*ast.SelectorExpr]bool)
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := calleeFunc(pkg.Info, call.Fun)
				if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync/atomic" {
					return true
				}
				if f.Type().(*types.Signature).Recv() != nil {
					return true // typed atomics police themselves
				}
				if len(call.Args) == 0 {
					return true
				}
				ue, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
				if !ok || ue.Op != token.AND {
					return true
				}
				sel, ok := ast.Unparen(ue.X).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fv := fieldOf(pkg, sel)
				if fv == nil {
					return true
				}
				consumed[sel] = true
				u := fnFields[fv]
				if u == nil {
					u = &atomicUse{firstPos: call.Pos()}
					fnFields[fv] = u
				}
				if strings.Contains(f.Name(), "64") {
					u.is64 = true
				}
				return true
			})
		}
	}

	// Pass 2: plain accesses to those fields (rule 1).
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || consumed[sel] {
					return true
				}
				fv := fieldOf(pkg, sel)
				if fv == nil {
					return true
				}
				u, tracked := fnFields[fv]
				if !tracked {
					return true
				}
				c.findings = append(c.findings, atomicFinding{
					pos: sel.Sel.Pos(),
					pkg: pkg.Path,
					msg: fmt.Sprintf("field %s is accessed with sync/atomic (e.g. at %s) but accessed plainly here; use atomic ops everywhere or guard it with a mutex",
						fieldName(fv), ip.l.Fset.Position(u.firstPos)),
				})
				return true
			})
		}
	}

	// Pass 3: per-field plain writers, for rule 2.
	writers := make(map[*types.Var]map[string]bool)
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fnName := pkg.Path + "." + fd.Name.Name
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					fnName = funcID(obj)
				}
				noteWrite := func(e ast.Expr) {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						if fv := fieldOf(pkg, sel); fv != nil {
							if writers[fv] == nil {
								writers[fv] = make(map[string]bool)
							}
							writers[fv][fnName] = true
						}
					}
				}
				ast.Inspect(fd, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, l := range n.Lhs {
							noteWrite(l)
						}
					case *ast.IncDecStmt:
						noteWrite(n.X)
					}
					return true
				})
			}
		}
	}

	// Rules 2 and 3 over every named struct in the analyzed set.
	named := make([]*types.Named, len(ip.idx.named))
	copy(named, ip.idx.named)
	sort.Slice(named, func(i, j int) bool {
		return named[i].Obj().Pkg().Path()+"."+named[i].Obj().Name() <
			named[j].Obj().Pkg().Path()+"."+named[j].Obj().Name()
	})
	sizes386 := types.SizesFor("gc", "386")
	for _, nt := range named {
		st, ok := nt.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		pkgPath := nt.Obj().Pkg().Path()
		hasAtomicTyped, hasMutex := false, false
		allFields := make([]*types.Var, st.NumFields())
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			allFields[i] = f
			if isAtomicTyped(f.Type()) {
				hasAtomicTyped = true
			}
			if isMutexTyped(f.Type()) {
				hasMutex = true
			}
		}

		// Rule 3: 32-bit alignment of 64-bit atomically-accessed fields.
		var offsets []int64
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			u := fnFields[f]
			if u == nil || !u.is64 {
				continue
			}
			if offsets == nil {
				offsets = sizes386.Offsetsof(allFields)
			}
			if offsets[i]%8 != 0 {
				c.findings = append(c.findings, atomicFinding{
					pos: f.Pos(),
					pkg: pkgPath,
					msg: fmt.Sprintf("field %s is used with 64-bit sync/atomic ops but sits at offset %d under 32-bit layout; move it to the front of the struct or use atomic.Uint64/Int64",
						fieldName(f), offsets[i]),
				})
			}
		}

		// Rule 2: undisciplined plain neighbors of typed atomics.
		if !hasAtomicTyped || hasMutex {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if isAtomicTyped(f.Type()) || isSyncTyped(f.Type()) || isChanTyped(f.Type()) {
				continue
			}
			ws := writers[f]
			if len(ws) < 2 {
				continue
			}
			names := make([]string, 0, len(ws))
			for w := range ws {
				names = append(names, w)
			}
			sort.Strings(names)
			c.findings = append(c.findings, atomicFinding{
				pos: f.Pos(),
				pkg: pkgPath,
				msg: fmt.Sprintf("plain field %s of atomic-disciplined struct %s.%s is written by multiple functions (%s); make it atomic, add a mutex, or document the handoff protocol with an allow directive",
					f.Name(), pkgPath, nt.Obj().Name(), strings.Join(names, ", ")),
			})
		}
	}

	sort.Slice(c.findings, func(i, j int) bool {
		if c.findings[i].pos != c.findings[j].pos {
			return c.findings[i].pos < c.findings[j].pos
		}
		return c.findings[i].msg < c.findings[j].msg
	})
	return c
}

// fieldOf resolves a selector to the struct field it names, nil otherwise.
func fieldOf(pkg *Package, sel *ast.SelectorExpr) *types.Var {
	s := pkg.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

func fieldName(f *types.Var) string {
	if f.Pkg() != nil {
		return f.Pkg().Path() + "." + f.Name()
	}
	return f.Name()
}

func isAtomicTyped(t types.Type) bool {
	return namedIn(t, "sync/atomic") != ""
}

func isMutexTyped(t types.Type) bool {
	n := namedIn(t, "sync")
	return n == "Mutex" || n == "RWMutex"
}

// isSyncTyped treats any sync.* field (WaitGroup, Once, Cond, Map, Pool) as
// carrying its own discipline.
func isSyncTyped(t types.Type) bool {
	return namedIn(t, "sync") != ""
}

func isChanTyped(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// namedIn returns the type's name when it is a named type declared in the
// given package, "" otherwise.
func namedIn(t types.Type, pkgPath string) string {
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return ""
	}
	return obj.Name()
}
