package analysis

// The interprocedural layer: per-function summaries computed bottom-up over
// the module call graph, so taint introduced in one function is visible at
// every call site that consumes it. The function-local analyzers (the v1
// untrustedlen, and by construction everything built on plain ast.Inspect)
// lose a fact the moment it crosses a call boundary — a wire-decoded count
// handed to a helper that sizes an allocation, or an unsealed secret handed
// to a formatter two frames up — and after PRs 6–9 the code that touches
// unsealed bytes spans sealed → core → pool → fabric. Summaries carry
// exactly the facts the three interprocedural analyzers (secretflow,
// atomicsafe's census, untrustedlen v2) need:
//
//   - paramFlow:  which results each parameter may flow into
//   - paramSinks: which escape sinks (trace attr, exemplar, log/fmt,
//     package-level var, wire encode, unclamped allocation size) each
//     parameter can reach, with the call chain to the sink
//   - paramScrub: whether the function zeroes a parameter's bytes on an
//     unconditional path (clear(), Zero/Wipe/Scrub/Erase-style ops)
//   - resultWire / resultSecret: which results carry a wire-decoded
//     integer or unsealed-secret-derived bytes
//
// plus the function's own concrete violations (sink events whose value is
// already tainted) and secret obligations (unsealed values that neither
// reach a scrub nor escape to a caller).
//
// Order: the call graph (static calls plus the same import-closure-limited
// CHA expansion the TCB accountant uses — the machinery is shared through
// modIndex below) is condensed into strongly connected components, and
// components are summarized callee-first. Within a recursive component the
// members are iterated to a fixpoint with a hard cutoff of sccRounds
// rounds; facts that have not stabilized by then are dropped, making
// recursion an under-approximation rather than a divergence.
//
// The value model is deliberately modest: flow-insensitive over local
// variables (assignment positions and guard positions disambiguate the
// clamp-before-allocate ordering), field-insensitive (a struct value
// carries the union of everything stored into it), and callee-transparent
// only for module functions — standard-library calls default to
// "parameters flow to every result" except for the cataloged sinks,
// builtins, and the declassification boundaries described in secretflow.go.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// --- shared module index (CHA machinery, also used by tcb.go) ---------------

// modIndex is the module-wide declaration/type index both the TCB
// accountant and the summary engine build their call graphs from.
type modIndex struct {
	l     *Loader
	pkgs  []*Package
	decls map[*types.Func]*ast.FuncDecl
	pkgOf map[*types.Func]*Package
	// named collects every named type in the module, for CHA.
	named []*types.Named
	// visible memoizes each package's transitive import closure (itself
	// included), the set of packages whose types it can name.
	visible map[*types.Package]map[*types.Package]bool
}

// newModIndex indexes every function declaration and named type in pkgs.
func newModIndex(l *Loader, pkgs []*Package) *modIndex {
	ix := &modIndex{
		l:       l,
		pkgs:    pkgs,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		pkgOf:   make(map[*types.Func]*Package),
		visible: make(map[*types.Package]map[*types.Package]bool),
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					ix.decls[obj] = fd
					ix.pkgOf[obj] = pkg
				}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok {
					ix.named = append(ix.named, named)
				}
			}
		}
	}
	return ix
}

// visibleFrom reports whether def's types are nameable from pkg: def is
// pkg itself or in pkg's transitive imports. A package cannot construct
// values of types it cannot name, so CHA expansions are limited to this
// closure.
func (ix *modIndex) visibleFrom(pkg, def *types.Package) bool {
	if pkg == nil || def == nil || pkg == def {
		return true
	}
	closure := ix.visible[pkg]
	if closure == nil {
		closure = map[*types.Package]bool{pkg: true}
		queue := []*types.Package{pkg}
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			for _, imp := range p.Imports() {
				if !closure[imp] {
					closure[imp] = true
					queue = append(queue, imp)
				}
			}
		}
		ix.visible[pkg] = closure
	}
	return closure[def]
}

// implementors returns, for an interface method, the corresponding concrete
// method of every module type implementing the interface (CHA).
func (ix *modIndex) implementors(m *types.Func) []*types.Func {
	iface, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, named := range ix.named {
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		recv := types.Type(named)
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
		if f, ok := obj.(*types.Func); ok {
			out = append(out, f)
		}
	}
	return out
}

// callEdges records, for each declared function, every module function it
// references plus the CHA expansion of every interface method it calls,
// restricted to the caller's import closure.
func (ix *modIndex) callEdges() map[*types.Func][]*types.Func {
	edges := make(map[*types.Func][]*types.Func, len(ix.decls))
	for obj, fd := range ix.decls {
		pkg := ix.pkgOf[obj]
		var out []*types.Func
		seen := make(map[*types.Func]bool)
		add := func(f *types.Func) {
			if f != nil && !seen[f] && ix.decls[f] != nil {
				seen[f] = true
				out = append(out, f)
			}
		}
		ast.Inspect(fd, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if f, ok := pkg.Info.Uses[id].(*types.Func); ok {
					if recv := f.Type().(*types.Signature).Recv(); recv != nil {
						if _, isIface := recv.Type().Underlying().(*types.Interface); isIface {
							for _, impl := range ix.implementors(f) {
								if ix.visibleFrom(pkg.Types, impl.Pkg()) {
									add(impl)
								}
							}
							return true
						}
					}
					add(f)
				}
			}
			return true
		})
		sort.Slice(out, func(i, j int) bool { return funcID(out[i]) < funcID(out[j]) })
		edges[obj] = out
	}
	return edges
}

// --- taint tags and sink kinds ----------------------------------------------

// tags is one abstract value: the taints it carries and the enclosing
// function's parameters that may flow into it.
type tags struct {
	wire   bool   // derives from a wire-decoded integer
	secret bool   // derives from unsealed secret bytes
	params uint64 // bitset of the enclosing function's parameters
}

func (t tags) empty() bool { return !t.wire && !t.secret && t.params == 0 }
func (t tags) union(o tags) tags {
	return tags{wire: t.wire || o.wire, secret: t.secret || o.secret, params: t.params | o.params}
}

// SinkKind classifies an escape sink.
type SinkKind uint8

const (
	// SinkAlloc sizes an allocation (make) without a clamp — untrustedlen's
	// sink.
	SinkAlloc SinkKind = iota
	// SinkTraceAttr annotates a trace span (Span.SetAttr / SetAttrInt).
	SinkTraceAttr
	// SinkExemplar pins a metric exemplar (Observe*Exemplar).
	SinkExemplar
	// SinkLog reaches fmt/log output or string formatting.
	SinkLog
	// SinkGlobal is stored into a package-level variable.
	SinkGlobal
	// SinkWire is encoded onto a wire frame (encoding/binary appends/puts,
	// netsim port calls) outside the sealed path.
	SinkWire
)

// String names the sink for diagnostics and the JSON report.
func (k SinkKind) String() string {
	switch k {
	case SinkAlloc:
		return "allocation size"
	case SinkTraceAttr:
		return "trace span attribute"
	case SinkExemplar:
		return "metric exemplar"
	case SinkLog:
		return "log/fmt output"
	case SinkGlobal:
		return "package-level variable"
	case SinkWire:
		return "wire encode"
	}
	return "sink"
}

// sinkChain is one path from a parameter to a sink: the position of the
// sink operation and the callee chain (funcIDs, outermost first) below the
// summarized function.
type sinkChain struct {
	pos   token.Pos
	chain []string
}

// sinkEvent is one concrete violation inside a function: a value already
// carrying taint reached a sink.
type sinkEvent struct {
	kind   SinkKind
	pos    token.Pos // sink position in this function (call site or op)
	srcPos token.Pos // where the taint was born in this function
	wire   bool
	secret bool
	chain  []string // callee chain below this function, nil for a direct sink
}

// obligation is one unsealed-secret value that neither reaches a scrub nor
// escapes to the caller: it would be dropped on the floor still live.
type obligation struct {
	pos         token.Pos // the source call
	name        string    // the local variable, "" when anonymous
	conditional bool      // scrubbed, but only on a conditional path
}

// FuncSummary is one function's interprocedural summary.
type FuncSummary struct {
	fn   *types.Func
	decl *ast.FuncDecl

	// paramFlow[i] is the bitset of result indices parameter i may flow to.
	paramFlow []uint64
	// paramSinks[i] maps each sink kind parameter i can reach to one
	// representative chain.
	paramSinks []map[SinkKind]*sinkChain
	// paramScrub[i] reports that the function zeroes parameter i's bytes on
	// an unconditional path.
	paramScrub []bool
	// paramClamp[i] reports that the function validates parameter i (a
	// comparison guard anywhere in the body). Passing a wire count through
	// a validator helper (memory.checkRange-style) counts as clamping it.
	paramClamp []bool
	// resultWire/resultSecret are bitsets of tainted result indices.
	resultWire   uint64
	resultSecret uint64

	events      []sinkEvent
	obligations []obligation
}

// --- the engine -------------------------------------------------------------

// sccRounds is the recursion cutoff: members of a recursive call-graph
// component are re-summarized at most this many times; facts that have not
// stabilized by then are dropped (an under-approximation, never a hang).
const sccRounds = 3

// maxChaFanout bounds how many CHA implementors an interface call site
// merges; beyond it the call degrades to the unknown-callee default.
const maxChaFanout = 8

// Interp is the interprocedural context shared by one analysis run: the
// module index, the call graph, and the computed summaries.
type Interp struct {
	l     *Loader
	idx   *modIndex
	edges map[*types.Func][]*types.Func
	sums  map[*types.Func]*FuncSummary

	// census for atomicsafe, built lazily (see atomicsafe.go).
	atomics *atomicCensus
}

// NewInterp builds summaries for every function declared in pkgs,
// bottom-up over the call graph.
func NewInterp(l *Loader, pkgs []*Package) *Interp {
	ip := &Interp{
		l:    l,
		idx:  newModIndex(l, pkgs),
		sums: make(map[*types.Func]*FuncSummary),
	}
	ip.edges = ip.idx.callEdges()
	for _, scc := range ip.sccs() {
		rounds := 1
		if len(scc) > 1 || ip.selfRecursive(scc[0]) {
			rounds = sccRounds
		}
		for r := 0; r < rounds; r++ {
			changed := false
			for _, fn := range scc {
				if ip.summarize(fn) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return ip
}

// Summary returns fn's summary, or nil for functions with no declaration in
// the analyzed package set.
func (ip *Interp) Summary(fn *types.Func) *FuncSummary { return ip.sums[fn] }

func (ip *Interp) selfRecursive(fn *types.Func) bool {
	for _, c := range ip.edges[fn] {
		if c == fn {
			return true
		}
	}
	return false
}

// sccs returns the call graph's strongly connected components in
// callee-first (reverse topological) order, deterministically.
func (ip *Interp) sccs() [][]*types.Func {
	fns := make([]*types.Func, 0, len(ip.idx.decls))
	for fn := range ip.idx.decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return funcID(fns[i]) < funcID(fns[j]) })

	// Tarjan, iterative enough for Go stacks (module functions are shallow).
	index := make(map[*types.Func]int)
	low := make(map[*types.Func]int)
	onStack := make(map[*types.Func]bool)
	var stack []*types.Func
	var out [][]*types.Func
	next := 0

	var strongconnect func(v *types.Func)
	strongconnect = func(v *types.Func) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range ip.edges[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*types.Func
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Slice(scc, func(i, j int) bool { return funcID(scc[i]) < funcID(scc[j]) })
			out = append(out, scc)
		}
	}
	for _, fn := range fns {
		if _, seen := index[fn]; !seen {
			strongconnect(fn)
		}
	}
	return out
}

// summarize (re)computes fn's summary against the current summaries of its
// callees, reporting whether the exported facts changed.
func (ip *Interp) summarize(fn *types.Func) bool {
	decl := ip.idx.decls[fn]
	if decl == nil || decl.Body == nil {
		return false
	}
	w := &funcWalker{
		ip:       ip,
		fn:       fn,
		pkg:      ip.idx.pkgOf[fn],
		st:       make(map[types.Object]tags),
		taintPos: make(map[types.Object]token.Pos),
		guardPos: make(map[types.Object]token.Pos),
		scrubbed: make(map[types.Object]int),
		escaped:  make(map[types.Object]bool),
	}
	sig := fn.Type().(*types.Signature)
	w.sig = sig
	for i := 0; i < sig.Params().Len() && i < 64; i++ {
		p := sig.Params().At(i)
		w.st[p] = tags{params: 1 << uint(i)}
		w.paramObj = append(w.paramObj, p)
	}
	sum := &FuncSummary{
		fn:         fn,
		decl:       decl,
		paramFlow:  make([]uint64, len(w.paramObj)),
		paramSinks: make([]map[SinkKind]*sinkChain, len(w.paramObj)),
		paramScrub: make([]bool, len(w.paramObj)),
		paramClamp: make([]bool, len(w.paramObj)),
	}
	w.sum = sum

	// Flow-insensitive fixpoint over the body: two passes are enough for
	// the straight-line chains the module writes; a third catches
	// use-before-def shuffles. Events are only recorded on the final pass
	// so earlier, partially-propagated passes cannot duplicate them.
	for pass := 0; pass < 3; pass++ {
		w.record = pass == 2
		w.walkStmts(decl.Body.List, 0)
	}
	w.finish()

	old := ip.sums[fn]
	ip.sums[fn] = sum
	return old == nil || !summariesEqual(old, sum)
}

func summariesEqual(a, b *FuncSummary) bool {
	if a.resultWire != b.resultWire || a.resultSecret != b.resultSecret ||
		len(a.events) != len(b.events) || len(a.obligations) != len(b.obligations) {
		return false
	}
	for i := range a.paramFlow {
		if a.paramFlow[i] != b.paramFlow[i] || a.paramScrub[i] != b.paramScrub[i] ||
			a.paramClamp[i] != b.paramClamp[i] ||
			len(a.paramSinks[i]) != len(b.paramSinks[i]) {
			return false
		}
		for k := range a.paramSinks[i] {
			if _, ok := b.paramSinks[i][k]; !ok {
				return false
			}
		}
	}
	return true
}

// funcWalker carries one function's in-progress analysis state.
type funcWalker struct {
	ip       *Interp
	fn       *types.Func
	pkg      *Package
	sig      *types.Signature
	sum      *FuncSummary
	paramObj []*types.Var

	st       map[types.Object]tags
	taintPos map[types.Object]token.Pos
	guardPos map[types.Object]token.Pos
	// scrubbed records the shallowest branch depth at which each object was
	// zeroed, stored as depth+1 so the zero value means "never scrubbed". A
	// scrub discharges a secret obligation when it is no deeper than the
	// branch where the secret materialized: a defer inside the same switch
	// arm as the Unseal covers every path that saw the secret.
	scrubbed map[types.Object]int
	// escaped: the object flowed to a return value, an outgoing call that
	// keeps it alive (its result was consumed), a custody boundary
	// (SetOutput/Seal), or a channel — the caller (or the engine's page
	// scrub) takes over the obligation.
	escaped map[types.Object]bool
	// secretSources are the secret-source call sites seen, with the object
	// each result landed in (nil when immediately consumed — treated as
	// escaped into the consuming expression).
	secretSources []secretSource

	// inLit counts enclosing func-literal bodies: returns inside a literal
	// leave the literal, not this function, so they mark escapes without
	// touching the result masks.
	inLit int

	record bool
}

type secretSource struct {
	pos  token.Pos
	obj  types.Object
	cond int // branch depth where the value became secret
}

// --- statements -------------------------------------------------------------

func (w *funcWalker) walkStmts(list []ast.Stmt, cond int) {
	for _, s := range list {
		w.walkStmt(s, cond)
	}
}

func (w *funcWalker) walkStmt(s ast.Stmt, cond int) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.assign(s.Lhs, s.Rhs, cond)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					w.assign(lhs, vs.Values, cond)
				}
			}
		}
	case *ast.ExprStmt:
		w.eval(s.X, cond)
	case *ast.ReturnStmt:
		w.handleReturn(s, cond)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, cond)
		}
		w.recordGuards(s.Cond)
		w.eval(s.Cond, cond)
		w.walkStmts(s.Body.List, cond+1)
		if s.Else != nil {
			w.walkStmt(s.Else, cond+1)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, cond)
		}
		if s.Cond != nil {
			w.recordGuards(s.Cond)
			w.eval(s.Cond, cond)
		}
		if s.Post != nil {
			w.walkStmt(s.Post, cond+1)
		}
		w.walkStmts(s.Body.List, cond+1)
	case *ast.RangeStmt:
		xt := w.eval(s.X, cond)
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := w.objOf(id); obj != nil {
					w.merge(obj, xt, e.Pos(), cond)
				}
			}
		}
		w.walkStmts(s.Body.List, cond+1)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, cond)
		}
		if s.Tag != nil {
			w.recordGuards(s.Tag)
			w.eval(s.Tag, cond)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.recordGuards(e)
					w.eval(e, cond)
				}
				w.walkStmts(cc.Body, cond+1)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, cond)
		}
		w.walkStmt(s.Assign, cond)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, cond+1)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.walkStmt(cc.Comm, cond+1)
				}
				w.walkStmts(cc.Body, cond+1)
			}
		}
	case *ast.BlockStmt:
		w.walkStmts(s.List, cond)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, cond)
	case *ast.DeferStmt:
		// A deferred call runs on every exit path: a top-level defer is an
		// unconditional scrub site even though it executes last.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			for _, a := range s.Call.Args {
				w.eval(a, cond)
			}
			w.inLit++
			w.walkStmts(lit.Body.List, cond)
			w.inLit--
			return
		}
		w.evalCall(s.Call, cond)
	case *ast.GoStmt:
		w.evalCall(s.Call, cond+1)
	case *ast.SendStmt:
		t := w.eval(s.Value, cond)
		w.eval(s.Chan, cond)
		// A channel send hands the value to another goroutine; the
		// obligation moves with it.
		if !t.empty() {
			for _, o := range w.carriers(s.Value) {
				w.escaped[o] = true
			}
		}
	case *ast.IncDecStmt:
		w.eval(s.X, cond)
	}
}

// assign propagates RHS tags into LHS objects, handling 1:1, tuple-call,
// and comma-ok shapes, and flags secret stores into package-level state.
func (w *funcWalker) assign(lhs, rhs []ast.Expr, cond int) {
	var rts []tags
	switch {
	case len(lhs) == len(rhs):
		rts = make([]tags, len(rhs))
		for i, r := range rhs {
			rts[i] = w.eval(r, cond)
		}
	case len(rhs) == 1:
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			rts = w.evalCall(call, cond)
			for len(rts) < len(lhs) {
				rts = append(rts, tags{})
			}
		} else {
			// comma-ok over an index/type assertion/receive.
			t := w.eval(rhs[0], cond)
			rts = make([]tags, len(lhs))
			rts[0] = t
		}
	default:
		for _, r := range rhs {
			w.eval(r, cond)
		}
		return
	}
	for i, l := range lhs {
		t := rts[i]
		srcPos := rhs[min(i, len(rhs)-1)].Pos()
		switch l := ast.Unparen(l).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			obj := w.objOf(l)
			if obj == nil {
				continue
			}
			if w.isGlobal(obj) {
				w.sinkValue(t, SinkGlobal, l.Pos(), srcPos, nil)
				continue
			}
			// Strong update: a plain reassignment replaces the old value,
			// so `n = min(n, limit)` launders the wire taint (the clamp
			// idiom) instead of accumulating it forever.
			w.setState(obj, t, srcPos, cond)
		case *ast.SelectorExpr:
			// Field-insensitive: storing into x.f taints x; storing into a
			// package-level var's field is a global store.
			if base := w.rootIdent(l.X); base != nil {
				if obj := w.objOf(base); obj != nil {
					if w.isGlobal(obj) {
						w.sinkValue(t, SinkGlobal, l.Pos(), srcPos, nil)
						continue
					}
					w.merge(obj, t, srcPos, cond)
				}
			}
		case *ast.IndexExpr:
			if base := w.rootIdent(l.X); base != nil {
				if obj := w.objOf(base); obj != nil {
					if w.isGlobal(obj) {
						w.sinkValue(t, SinkGlobal, l.Pos(), srcPos, nil)
						continue
					}
					w.merge(obj, t, srcPos, cond)
				}
			}
		case *ast.StarExpr:
			if base := w.rootIdent(l.X); base != nil {
				if obj := w.objOf(base); obj != nil {
					w.merge(obj, t, srcPos, cond)
				}
			}
		}
	}
}

func (w *funcWalker) handleReturn(s *ast.ReturnStmt, cond int) {
	if w.inLit > 0 {
		// Returning from a literal hands the value to the literal's caller
		// (for pal.Func bodies, the session engine's custody): an escape,
		// not a contribution to the enclosing function's results.
		for _, e := range s.Results {
			if !w.eval(e, cond).empty() {
				for _, o := range w.carriers(e) {
					w.escaped[o] = true
				}
			}
		}
		return
	}
	results := w.sig.Results()
	record := func(r int, t tags, carriersOf ast.Expr) {
		if r >= 64 {
			return
		}
		if t.wire {
			w.sum.resultWire |= 1 << uint(r)
		}
		if t.secret {
			w.sum.resultSecret |= 1 << uint(r)
		}
		for i := range w.sum.paramFlow {
			if t.params&(1<<uint(i)) != 0 {
				w.sum.paramFlow[i] |= 1 << uint(r)
			}
		}
		if carriersOf != nil && !t.empty() {
			for _, o := range w.carriers(carriersOf) {
				w.escaped[o] = true
			}
		}
	}
	switch {
	case len(s.Results) == results.Len():
		for i, e := range s.Results {
			record(i, w.eval(e, cond), e)
		}
	case len(s.Results) == 1 && results.Len() > 1:
		if call, ok := ast.Unparen(s.Results[0]).(*ast.CallExpr); ok {
			rts := w.evalCall(call, cond)
			for i := 0; i < results.Len() && i < len(rts); i++ {
				record(i, rts[i], nil)
			}
			for _, o := range w.carriers(s.Results[0]) {
				w.escaped[o] = true
			}
		}
	case len(s.Results) == 0 && results.Len() > 0:
		// Bare return with named results.
		for i := 0; i < results.Len(); i++ {
			if obj := results.At(i); obj.Name() != "" {
				record(i, w.st[obj], nil)
				w.escaped[obj] = true
			}
		}
	default:
		for _, e := range s.Results {
			w.eval(e, cond)
		}
	}
}

// recordGuards marks every object mentioned in a comparison as clamped from
// the comparison's position on: the author validated the value.
func (w *funcWalker) recordGuards(cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		default:
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			ast.Inspect(side, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := w.objOf(id); obj != nil {
						if cur, ok := w.guardPos[obj]; !ok || be.Pos() < cur {
							w.guardPos[obj] = be.Pos()
						}
					}
				}
				return true
			})
		}
		return true
	})
}

// --- expressions ------------------------------------------------------------

// eval computes an expression's tags (first result for calls).
func (w *funcWalker) eval(e ast.Expr, cond int) tags {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := w.objOf(e); obj != nil {
			return w.st[obj]
		}
	case *ast.CallExpr:
		rts := w.evalCall(e, cond)
		if len(rts) > 0 {
			return rts[0]
		}
	case *ast.BinaryExpr:
		x := w.eval(e.X, cond)
		y := w.eval(e.Y, cond)
		switch e.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ,
			token.LAND, token.LOR:
			return tags{} // booleans are not carriers
		}
		return x.union(y)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW { // channel receive: unknown producer
			w.eval(e.X, cond)
			return tags{}
		}
		return w.eval(e.X, cond)
	case *ast.StarExpr:
		return w.eval(e.X, cond)
	case *ast.SelectorExpr:
		// Qualified package identifier or field/method selection: a field
		// read carries the base value's tags (field-insensitive).
		if sel := w.pkg.Info.Selections[e]; sel != nil {
			if sel.Kind() == types.FieldVal {
				return w.eval(e.X, cond)
			}
			return tags{} // method value
		}
		return tags{} // pkg.Name
	case *ast.IndexExpr:
		return w.eval(e.X, cond)
	case *ast.IndexListExpr:
		return w.eval(e.X, cond)
	case *ast.SliceExpr:
		return w.eval(e.X, cond)
	case *ast.TypeAssertExpr:
		return w.eval(e.X, cond)
	case *ast.CompositeLit:
		var t tags
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				t = t.union(w.eval(kv.Value, cond))
				continue
			}
			t = t.union(w.eval(elt, cond))
		}
		return t
	case *ast.FuncLit:
		w.walkLit(e, cond)
	}
	return tags{}
}

// walkLit walks a function literal's body: as conditional (it runs at an
// unknown time, so scrubs inside don't count as covering the enclosing
// function's paths) and with lit-return semantics.
func (w *funcWalker) walkLit(lit *ast.FuncLit, cond int) {
	w.inLit++
	w.walkStmts(lit.Body.List, cond+1)
	w.inLit--
}

// evalCall dispatches one call: builtins, conversions, sources, scrubs,
// custody boundaries, sinks, module callees (summary transfer), and the
// unknown-callee default.
func (w *funcWalker) evalCall(call *ast.CallExpr, cond int) []tags {
	info := w.pkg.Info

	// Immediately-invoked (or go'd) literal: walk the body, then fall
	// through to the unknown-callee default for the result.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.walkLit(lit, cond)
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "len", "cap", "make", "new", "min", "max":
				// len/cap launder (a length is not the value); min/max are
				// the clamp idiom; make/new create fresh values. Arguments
				// still get walked for nested calls.
				for _, a := range call.Args {
					w.eval(a, cond)
				}
				if id.Name == "make" {
					w.auditMakeSizes(call, cond)
				}
				return []tags{{}}
			case "clear":
				// clear(x) zeroes x in place: the scrub sink.
				if len(call.Args) == 1 {
					w.scrubExpr(call.Args[0], cond)
				}
				return []tags{{}}
			case "append", "copy":
				var t tags
				for _, a := range call.Args {
					t = t.union(w.eval(a, cond))
				}
				if len(call.Args) > 0 {
					if base := w.rootIdent(call.Args[0]); base != nil {
						if obj := w.objOf(base); obj != nil {
							w.merge(obj, t, call.Pos(), cond)
						}
					}
				}
				return []tags{t}
			default:
				for _, a := range call.Args {
					w.eval(a, cond)
				}
				return []tags{{}}
			}
		}
	}

	// Conversions propagate their operand (string(secret), int(n)).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return []tags{w.eval(call.Args[0], cond)}
	}

	f := calleeFunc(info, call)

	// Wire-decode source.
	if isEndianDecode(f) {
		for _, a := range call.Args {
			w.eval(a, cond)
		}
		return []tags{{wire: true}}
	}
	// Secret source.
	if w.ip.isSecretSource(f) {
		for _, a := range call.Args {
			w.eval(a, cond)
		}
		return []tags{{secret: true}}
	}
	// Custody boundary: the value is handed to the sealed path / the
	// engine's scrubbed output register; results are released artifacts.
	if w.ip.isCustody(f) {
		for _, a := range call.Args {
			if !w.eval(a, cond).empty() {
				for _, o := range w.carriers(a) {
					w.escaped[o] = true
				}
			}
		}
		return w.cleanResults(f)
	}
	// Named scrub op (Zero/Wipe/Scrub/Erase/ZeroIfDirty/ResetOutput...),
	// matched by name like scrubpair does, so hw/memory, pal, palcrypto,
	// and fixture scrubbers all count. Checked before declassification:
	// palcrypto.(*RSAPrivateKey).Zero is a scrub, not a release.
	if name := calleeName(call); name != "" && scrubOps[name] {
		for _, a := range call.Args {
			w.eval(a, cond)
			w.scrubExpr(a, cond)
		}
		if recv := receiverExpr(call); recv != nil {
			w.eval(recv, cond)
			w.scrubExpr(recv, cond)
		}
		return w.cleanResults(f)
	}
	// Declassification: palcrypto encrypt/sign/digest outputs are
	// releasable ciphertext and MACs; the key argument is consumed (custody
	// moves into the crypto op), and the result drops the secret tag —
	// otherwise every sealed response frame would flag.
	if w.ip.isDeclassifier(f) {
		for _, a := range call.Args {
			if !w.eval(a, cond).empty() {
				for _, o := range w.carriers(a) {
					w.escaped[o] = true
				}
			}
		}
		if recv := receiverExpr(call); recv != nil {
			w.eval(recv, cond)
		}
		return w.cleanResults(f)
	}
	// Cataloged leak sinks (trace attrs, exemplars, fmt/log, wire encodes).
	if kind, isSink := w.ip.sinkOf(f); isSink {
		for _, a := range call.Args {
			t := w.eval(a, cond)
			w.sinkValue(t, kind, call.Pos(), w.srcPosOf(a), nil)
		}
		// Append-style encoders return their buffer; the buffer inherits
		// the arguments (so chained appends keep flagging).
		return w.unknownResults(call, cond, tags{})
	}

	// Interface method: merge the CHA implementors' summaries (bounded).
	if f != nil {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			if _, isIface := recv.Type().Underlying().(*types.Interface); isIface {
				impls := w.ip.idx.implementors(f)
				var known []*FuncSummary
				for _, impl := range impls {
					if !w.ip.idx.visibleFrom(w.pkg.Types, impl.Pkg()) {
						continue
					}
					if s := w.ip.sums[impl]; s != nil {
						known = append(known, s)
					}
				}
				if len(known) > 0 && len(known) <= maxChaFanout {
					return w.applySummaries(call, known, cond)
				}
				return w.unknownResults(call, cond, tags{})
			}
		}
		if s := w.ip.sums[f]; s != nil {
			return w.applySummaries(call, []*FuncSummary{s}, cond)
		}
	}

	// Unknown callee (stdlib, dynamic): parameters flow to every result.
	return w.unknownResults(call, cond, tags{})
}

// applySummaries transfers one or more callee summaries onto a call site:
// argument taints reach the callee's parameter sinks (reported here, at the
// caller, with the chain extended), parameter scrubs discharge arguments,
// and result taints flow out.
func (w *funcWalker) applySummaries(call *ast.CallExpr, sums []*FuncSummary, cond int) []tags {
	nres := 1
	if sig, ok := typeOfCall(w.pkg.Info, call); ok {
		nres = sig
	}
	out := make([]tags, nres)

	argTags := make([]tags, len(call.Args))
	for i, a := range call.Args {
		argTags[i] = w.eval(a, cond)
	}
	for _, s := range sums {
		np := len(s.paramFlow)
		for i, a := range call.Args {
			pi := i
			if pi >= np {
				if np == 0 {
					continue
				}
				pi = np - 1 // variadic tail
			}
			t := argTags[i]
			if t.empty() {
				continue
			}
			// Sinks the callee exposes this parameter to.
			for kind, sc := range s.paramSinks[pi] {
				if kind == SinkAlloc && !t.wire && t.params == 0 {
					continue
				}
				chain := append([]string{funcID(s.fn)}, sc.chain...)
				if kind == SinkAlloc && t.wire && w.unclampedAt(a, call.Pos()) {
					w.sinkValue(tags{wire: true}, SinkAlloc, call.Pos(), w.srcPosOf(a), chain)
				}
				if kind != SinkAlloc && t.secret {
					w.sinkValue(tags{secret: true}, kind, call.Pos(), w.srcPosOf(a), chain)
				}
				// Parameter bits propagate regardless, building this
				// function's own summary.
				w.paramSink(t, kind, call.Pos(), chain)
			}
			// Scrub transfer: the callee zeroes this parameter.
			if s.paramScrub[pi] {
				w.scrubExpr(call.Args[i], cond)
			}
			// Clamp transfer: the callee validates this parameter
			// (memory.checkRange-style helpers), so the value counts as
			// guarded from the call on.
			if s.paramClamp[pi] {
				for _, o := range w.carriers(call.Args[i]) {
					if cur, ok := w.guardPos[o]; !ok || call.Pos() < cur {
						w.guardPos[o] = call.Pos()
					}
				}
			}
			// Custody: the callee folds the argument into a result the
			// caller consumes.
			if s.paramFlow[pi] != 0 {
				for _, o := range w.carriers(call.Args[i]) {
					w.escaped[o] = true
				}
			}
			// Result flow.
			for r := 0; r < nres && r < 64; r++ {
				if s.paramFlow[pi]&(1<<uint(r)) != 0 {
					out[r] = out[r].union(t)
				}
			}
		}
		for r := 0; r < nres && r < 64; r++ {
			if s.resultWire&(1<<uint(r)) != 0 {
				out[r].wire = true
			}
			if s.resultSecret&(1<<uint(r)) != 0 {
				out[r].secret = true
			}
		}
	}
	return out
}

// unknownResults is the default transfer for calls with no summary: every
// result carries the union of the arguments (plus extra), so taint survives
// strings.TrimSpace-style plumbing.
func (w *funcWalker) unknownResults(call *ast.CallExpr, cond int, extra tags) []tags {
	t := extra
	for _, a := range call.Args {
		t = t.union(w.eval(a, cond))
	}
	if recv := receiverExpr(call); recv != nil {
		t = t.union(w.eval(recv, cond))
	}
	if !t.empty() {
		// Custody-by-default: if the caller consumes the result, the taint
		// (and the obligation) moves into it; the assignment path re-taints.
		for _, a := range call.Args {
			for _, o := range w.carriers(a) {
				w.escaped[o] = true
			}
		}
	}
	n := 1
	if nr, ok := typeOfCall(w.pkg.Info, call); ok {
		n = nr
	}
	out := make([]tags, n)
	for i := range out {
		out[i] = t
	}
	return out
}

func (w *funcWalker) cleanResults(f *types.Func) []tags {
	n := 1
	if f != nil {
		if sig, ok := f.Type().(*types.Signature); ok {
			n = sig.Results().Len()
			if n == 0 {
				n = 1
			}
		}
	}
	return make([]tags, n)
}

// auditMakeSizes checks a make() call's size/cap arguments for unclamped
// tainted values — the untrustedlen sink.
func (w *funcWalker) auditMakeSizes(call *ast.CallExpr, cond int) {
	for _, arg := range call.Args[1:] {
		t := w.eval(arg, cond)
		if t.empty() {
			continue
		}
		if !w.unclampedAt(arg, call.Pos()) {
			continue
		}
		if t.wire {
			w.sinkValue(tags{wire: true}, SinkAlloc, call.Pos(), w.srcPosOf(arg), nil)
		}
		w.paramSink(t, SinkAlloc, call.Pos(), nil)
	}
}

// unclampedAt reports whether no carrier of e was guarded (compared or
// min/max'ed) before pos. Expressions with no carrier variable (a decode
// inlined into the size argument) are always unclamped.
func (w *funcWalker) unclampedAt(e ast.Expr, pos token.Pos) bool {
	for _, o := range w.carriers(e) {
		if gp, ok := w.guardPos[o]; ok && gp < pos {
			return false
		}
	}
	return true
}

// --- sinks, scrubs, bookkeeping ---------------------------------------------

// sinkValue records a concrete event (when the value is tainted) on the
// final pass. Param bits route to paramSink separately by callers that
// need position-sensitive handling; this helper covers both for the
// common path.
func (w *funcWalker) sinkValue(t tags, kind SinkKind, pos, srcPos token.Pos, chain []string) {
	w.paramSink(t, kind, pos, chain)
	if !w.record || (!t.wire && !t.secret) {
		return
	}
	if kind == SinkAlloc && !t.wire {
		return // allocation sizes only matter for wire counts
	}
	if kind != SinkAlloc && !t.secret {
		return // leak sinks only matter for secrets
	}
	for _, ev := range w.sum.events {
		if ev.pos == pos && ev.kind == kind {
			return
		}
	}
	w.sum.events = append(w.sum.events, sinkEvent{
		kind: kind, pos: pos, srcPos: srcPos,
		wire: t.wire, secret: t.secret, chain: chain,
	})
}

func (w *funcWalker) paramSink(t tags, kind SinkKind, pos token.Pos, chain []string) {
	if t.params == 0 {
		return
	}
	for i := range w.sum.paramSinks {
		if t.params&(1<<uint(i)) == 0 {
			continue
		}
		if w.sum.paramSinks[i] == nil {
			w.sum.paramSinks[i] = make(map[SinkKind]*sinkChain)
		}
		if _, ok := w.sum.paramSinks[i][kind]; !ok {
			w.sum.paramSinks[i][kind] = &sinkChain{pos: pos, chain: chain}
		}
	}
}

// scrubExpr marks e's carriers as scrubbed at the current branch depth,
// keeping the shallowest depth seen.
func (w *funcWalker) scrubExpr(e ast.Expr, cond int) {
	for _, o := range w.carriers(e) {
		if cur := w.scrubbed[o]; cur == 0 || cur > cond+1 {
			w.scrubbed[o] = cond + 1
		}
		// A scrub on every path through the function is a summary fact
		// about the parameters it covers.
		if cond == 0 {
			if t := w.st[o]; t.params != 0 {
				for i := range w.sum.paramScrub {
					if t.params&(1<<uint(i)) != 0 {
						w.sum.paramScrub[i] = true
					}
				}
			}
		}
	}
}

// merge unions tags into obj's state (weak update, for field-insensitive
// stores), recording the earliest taint site and secret obligations.
func (w *funcWalker) merge(obj types.Object, t tags, pos token.Pos, cond int) {
	if t.empty() {
		return
	}
	cur := w.st[obj]
	if !cur.secret && t.secret {
		// This local just became a secret holder: attach the obligation to
		// the position where it happened. Transitions fire once because
		// state persists across the body passes.
		w.secretSources = append(w.secretSources, secretSource{pos: pos, obj: obj, cond: cond})
	}
	w.st[obj] = cur.union(t)
	if _, ok := w.taintPos[obj]; !ok {
		w.taintPos[obj] = pos
	}
}

// setState replaces obj's state (strong update, for plain reassignment).
func (w *funcWalker) setState(obj types.Object, t tags, pos token.Pos, cond int) {
	cur := w.st[obj]
	if !cur.secret && t.secret {
		w.secretSources = append(w.secretSources, secretSource{pos: pos, obj: obj, cond: cond})
	}
	if t.empty() {
		delete(w.st, obj)
		return
	}
	w.st[obj] = t
	if _, ok := w.taintPos[obj]; !ok {
		w.taintPos[obj] = pos
	}
}

// finish converts the final state into obligations and parameter facts.
func (w *funcWalker) finish() {
	for i, p := range w.paramObj {
		if _, ok := w.guardPos[p]; ok {
			w.sum.paramClamp[i] = true
		}
	}
	seen := make(map[types.Object]bool)
	for _, src := range w.secretSources {
		obj := src.obj
		if obj == nil || seen[obj] {
			continue
		}
		seen[obj] = true
		sc := w.scrubbed[obj]
		if w.escaped[obj] || (sc != 0 && sc-1 <= src.cond) {
			continue
		}
		// Params already carry the obligation at their caller.
		if t := w.st[obj]; t.params != 0 {
			continue
		}
		w.sum.obligations = append(w.sum.obligations, obligation{
			pos: src.pos, name: obj.Name(), conditional: sc != 0,
		})
	}
	sort.Slice(w.sum.obligations, func(i, j int) bool {
		return w.sum.obligations[i].pos < w.sum.obligations[j].pos
	})
	sort.Slice(w.sum.events, func(i, j int) bool {
		if w.sum.events[i].pos != w.sum.events[j].pos {
			return w.sum.events[i].pos < w.sum.events[j].pos
		}
		return w.sum.events[i].kind < w.sum.events[j].kind
	})
}

// --- small helpers ----------------------------------------------------------

func (w *funcWalker) objOf(id *ast.Ident) types.Object {
	if obj := w.pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return w.pkg.Info.Uses[id]
}

func (w *funcWalker) isGlobal(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// rootIdent returns the base identifier of a selector/index/star chain.
func (w *funcWalker) rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// carriers lists the local objects with non-empty state mentioned in e.
func (w *funcWalker) carriers(e ast.Expr) []types.Object {
	var out []types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := w.objOf(id); obj != nil {
				if !w.st[obj].empty() {
					out = append(out, obj)
				}
			}
		}
		return true
	})
	return out
}

// srcPosOf returns the earliest known taint position among e's carriers,
// falling back to e itself (for inlined sources).
func (w *funcWalker) srcPosOf(e ast.Expr) token.Pos {
	best := token.NoPos
	for _, o := range w.carriers(e) {
		if tp, ok := w.taintPos[o]; ok && (!best.IsValid() || tp < best) {
			best = tp
		}
	}
	if !best.IsValid() {
		return e.Pos()
	}
	return best
}

// calleeName returns the syntactic callee name (method or function), "" for
// indirect calls.
func calleeName(call *ast.CallExpr) string {
	switch fe := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fe.Name
	case *ast.SelectorExpr:
		return fe.Sel.Name
	}
	return ""
}

// receiverExpr returns the receiver expression of a method-call syntax
// (x in x.M(...)), nil otherwise.
func receiverExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// typeOfCall returns the number of results the call produces.
func typeOfCall(info *types.Info, call *ast.CallExpr) (int, bool) {
	tv, ok := info.Types[call]
	if !ok {
		return 0, false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len(), true
	default:
		if tv.IsVoid() {
			return 0, true
		}
		return 1, true
	}
}

// isEndianDecode matches binary.BigEndian/LittleEndian/NativeEndian
// Uint16/Uint32/Uint64 — the wire-integer sources.
func isEndianDecode(f *types.Func) bool {
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "encoding/binary" {
		return false
	}
	switch f.Name() {
	case "Uint16", "Uint32", "Uint64":
		return true
	}
	return false
}

// --- source / custody / sink catalogs ---------------------------------------

// isSecretSource reports the unsealed-secret sources: pal.Env.Unseal (the
// session's replay-checked sealed-storage reads in internal/sealed derive
// from it and are summarized automatically).
func (ip *Interp) isSecretSource(f *types.Func) bool {
	if f == nil || f.Name() != "Unseal" {
		return false
	}
	return ip.isEnvMethod(f)
}

// isCustody reports the sealed-path custody boundaries: handing a value to
// them discharges the scrub obligation (the engine zeroes the output page;
// Seal returns releasable ciphertext).
func (ip *Interp) isCustody(f *types.Func) bool {
	if f == nil {
		return false
	}
	switch f.Name() {
	case "SetOutput", "SealToSelf", "SealToPCR17":
		return ip.isEnvMethod(f)
	}
	return false
}

// isDeclassifier reports palcrypto's ciphertext/MAC producers: its exported
// API. Decrypt* and Unmarshal* stay out: their outputs are plaintext and
// keep the taint via their ordinary summaries. So do palcrypto's unexported
// helpers, such as the key constructors Unmarshal* builds keys through.
func (ip *Interp) isDeclassifier(f *types.Func) bool {
	if f == nil || f.Pkg() == nil || !f.Exported() {
		return false
	}
	if f.Pkg().Path() != ip.l.Module+"/internal/palcrypto" {
		return false
	}
	name := f.Name()
	return !strings.HasPrefix(name, "Decrypt") && !strings.HasPrefix(name, "Unmarshal")
}

// isEnvMethod reports whether f is a method on internal/pal's Env.
func (ip *Interp) isEnvMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	return tn.Name() == "Env" && tn.Pkg() != nil &&
		tn.Pkg().Path() == ip.l.Module+"/internal/pal"
}

// sinkOf classifies cataloged leak-sink callees.
func (ip *Interp) sinkOf(f *types.Func) (SinkKind, bool) {
	if f == nil || f.Pkg() == nil {
		return 0, false
	}
	path, name := f.Pkg().Path(), f.Name()
	switch path {
	case "fmt":
		switch name {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln",
			"Sprint", "Sprintf", "Sprintln", "Errorf", "Appendf":
			return SinkLog, true
		}
	case "log", "log/slog":
		return SinkLog, true
	case "encoding/binary":
		if strings.HasPrefix(name, "Append") || strings.HasPrefix(name, "PutUint") {
			return SinkWire, true
		}
	}
	switch {
	case path == ip.l.Module+"/internal/trace" &&
		(name == "SetAttr" || name == "SetAttrInt"):
		return SinkTraceAttr, true
	case path == ip.l.Module+"/internal/metrics" && strings.Contains(name, "Exemplar"):
		return SinkExemplar, true
	case path == ip.l.Module+"/internal/netsim" &&
		(name == "Call" || name == "CallAppend" || name == "Send"):
		return SinkWire, true
	}
	return 0, false
}
