package analysis

// scrubpair: a pipeline phase that stages secret-bearing state (SLB window
// writes, staged PAL output) must be covered by a LIFO scrub teardown
// registered at or before that phase in the pipeline's phase list.
//
// This is the PR 4 stale-output leak, generalized: the batched request
// loop staged each request's reply in the shared Env and a request with no
// output of its own could inherit — and leak across callers — the previous
// request's bytes, because the staging had no paired reset. The session
// engine's contract is that teardowns run LIFO on every exit path
// (pipeline.go); this analyzer makes the "every staging phase is behind a
// scrub" half of that contract mechanical.
//
// Detection is structural so the engine types can evolve: any composite
// literal building a slice of phase-shaped structs (a struct with func
// fields named body and teardown, any casing) is treated as a pipeline
// definition. A phase stages if its body — followed through same-package
// calls — reaches a staging operation (PlaceSLB, SetOutput, Write,
// WriteIfChanged); a teardown scrubs if it reaches a scrub operation (Zero,
// ZeroIfDirty, Wipe, ResetOutput, DEVClear, Erase, Scrub).

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// ScrubPair reports staging pipeline phases with no scrub teardown
// registered at or before them.
var ScrubPair = &Analyzer{
	Name: "scrubpair",
	Doc: "pipeline phases that stage secret-bearing state must be covered " +
		"by a LIFO scrub teardown registered at or before the phase",
	Scope: prefixScope("flicker/internal/core"),
	Run:   runScrubPair,
}

// stagingOps are operations that place secret-bearing bytes somewhere that
// outlives the call: the SLB window, the staged output register, memory.
var stagingOps = map[string]bool{
	"PlaceSLB": true, "SetOutput": true, "Write": true,
	"WriteIfChanged": true,
}

// scrubOps are operations that erase or reset staged state.
var scrubOps = map[string]bool{
	"Zero": true, "ZeroIfDirty": true, "Wipe": true, "ResetOutput": true,
	"DEVClear": true, "Erase": true, "Scrub": true,
}

func runScrubPair(pass *Pass) {
	decls := funcDeclOf(pass.Pkg)
	sp := &scrubPairCheck{pass: pass, decls: decls, memo: make(map[*types.Func][2]int)}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			elemType, ok := phaseElemType(pass, cl)
			if !ok {
				return true
			}
			sp.checkPipeline(cl, elemType)
			return false // phase literals inside are handled by checkPipeline
		})
	}
}

// phaseElemType reports whether cl builds a slice/array of phase-shaped
// structs, returning the element struct type.
func phaseElemType(pass *Pass, cl *ast.CompositeLit) (*types.Struct, bool) {
	tv, ok := pass.Pkg.Info.Types[cl]
	if !ok {
		return nil, false
	}
	var elem types.Type
	switch t := tv.Type.Underlying().(type) {
	case *types.Slice:
		elem = t.Elem()
	case *types.Array:
		elem = t.Elem()
	default:
		return nil, false
	}
	st, ok := elem.Underlying().(*types.Struct)
	if !ok {
		return nil, false
	}
	var hasBody, hasTeardown bool
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if _, isFunc := f.Type().Underlying().(*types.Signature); !isFunc {
			continue
		}
		switch strings.ToLower(f.Name()) {
		case "body":
			hasBody = true
		case "teardown":
			hasTeardown = true
		}
	}
	return st, hasBody && hasTeardown
}

type scrubPairCheck struct {
	pass  *Pass
	decls map[*types.Func]*ast.FuncDecl
	// memo caches (stages, scrubs) per function: 0 unknown, 1 no, 2 yes.
	memo map[*types.Func][2]int
}

// checkPipeline walks one phase list in declaration order, tracking whether
// a scrub teardown has been registered yet.
func (sp *scrubPairCheck) checkPipeline(list *ast.CompositeLit, _ *types.Struct) {
	scrubRegistered := false
	for _, elt := range list.Elts {
		ph, ok := elt.(*ast.CompositeLit)
		if !ok {
			continue
		}
		var bodyExpr, teardownExpr ast.Expr
		name := ""
		for _, pe := range ph.Elts {
			kv, ok := pe.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			switch strings.ToLower(key.Name) {
			case "body":
				bodyExpr = kv.Value
			case "teardown":
				teardownExpr = kv.Value
			case "name":
				if lit, ok := kv.Value.(*ast.BasicLit); ok {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						name = s
					}
				}
			}
		}
		if teardownExpr != nil && sp.reaches(teardownExpr, scrubOps, 1) {
			scrubRegistered = true
		}
		if bodyExpr != nil && !scrubRegistered && sp.reaches(bodyExpr, stagingOps, 0) {
			label := name
			if label == "" {
				label = "(unnamed)"
			}
			sp.pass.Reportf(ph.Pos(),
				"phase %q stages secret-bearing state but no scrub teardown is registered at or before it; "+
					"pair the staging with a LIFO teardown (e.g. a zero/erase of the staged region)", label)
		}
	}
}

// reaches reports whether fn (an ident for a same-package function, or a
// func literal) transitively performs one of the named operations,
// following calls into same-package function declarations. kind selects
// the memo slot (0 staging, 1 scrub).
func (sp *scrubPairCheck) reaches(fn ast.Expr, ops map[string]bool, kind int) bool {
	visited := make(map[*types.Func]bool)
	var scanFunc func(obj *types.Func) bool
	var scanBody func(body ast.Node) bool

	scanBody = func(body ast.Node) bool {
		found := false
		ast.Inspect(body, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var calleeName string
			switch fe := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				calleeName = fe.Name
			case *ast.SelectorExpr:
				calleeName = fe.Sel.Name
			default:
				return true
			}
			if ops[calleeName] {
				found = true
				return false
			}
			if f := calleeFunc(sp.pass.Pkg.Info, call); f != nil &&
				f.Pkg() == sp.pass.Pkg.Types && scanFunc(f) {
				found = true
				return false
			}
			return true
		})
		return found
	}

	scanFunc = func(obj *types.Func) bool {
		if v, ok := sp.memo[obj]; ok && v[kind] != 0 {
			return v[kind] == 2
		}
		if visited[obj] {
			return false
		}
		visited[obj] = true
		decl := sp.decls[obj]
		if decl == nil || decl.Body == nil {
			return false
		}
		got := scanBody(decl.Body)
		v := sp.memo[obj]
		if got {
			v[kind] = 2
		} else {
			v[kind] = 1
		}
		sp.memo[obj] = v
		return got
	}

	switch fe := ast.Unparen(fn).(type) {
	case *ast.Ident:
		if f, ok := sp.pass.Pkg.Info.Uses[fe].(*types.Func); ok {
			return scanFunc(f)
		}
	case *ast.FuncLit:
		return scanBody(fe.Body)
	case *ast.SelectorExpr:
		if f, ok := sp.pass.Pkg.Info.Uses[fe.Sel].(*types.Func); ok {
			return scanFunc(f)
		}
	}
	return false
}
