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
// definition. A phase stages if its body — followed through its closure
// within the package — reaches a staging operation (PlaceSLB, SetOutput,
// Write, WriteIfChanged); a teardown scrubs if it reaches a scrub operation
// (Zero, ZeroIfDirty, Wipe, ResetOutput, DEVClear, Erase, Scrub).

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
	sp := &scrubPairCheck{pass: pass, ix: newModIndex(pass.Loader, []*Package{pass.Pkg}, false)}
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
	pass *Pass
	// ix indexes the package alone, so its closure stays in the package.
	ix *modIndex
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
		if teardownExpr != nil && sp.reaches(teardownExpr, scrubOps) {
			scrubRegistered = true
		}
		if bodyExpr != nil && !scrubRegistered && sp.reaches(bodyExpr, stagingOps) {
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

// reaches reports whether fn (a same-package function or a func literal)
// performs one of the named operations, itself or through the functions of
// its package that its closure reaches.
func (sp *scrubPairCheck) reaches(fn ast.Expr, ops map[string]bool) bool {
	var roots []*types.Func
	sp.ix.refs(sp.pass.Pkg, fn, make(map[types.Object]bool), &roots)
	if callsOp(fn, ops) {
		return true
	}
	for f := range sp.ix.closure(roots, nil) {
		if callsOp(sp.ix.decls[f], ops) {
			return true
		}
	}
	return false
}

// callsOp reports whether node calls a function or method named in ops.
func callsOp(node ast.Node, ops map[string]bool) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && ops[calleeName(call)] {
			found = true
		}
		return !found
	})
	return found
}
