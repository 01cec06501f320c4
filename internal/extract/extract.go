// Package extract is the reproduction of the paper's PAL-extraction tool
// (Section 5.2): "The programmer supplies our tool with the name of a
// target function within a larger program (e.g., rsa_keygen()). The tool
// then parses the program's call graph and extracts any functions that the
// target depends on, along with relevant type definitions, etc., to create
// a standalone C program. The tool also indicates which additional
// functions from standard libraries must be eliminated or replaced."
//
// The original operated on C via CIL; this version operates on Go source.
// It loads the target's package through analysis.Loader and takes the
// target's dependency closure from analysis.Closure, the closure the TCB
// report counts. It emits the closure's functions from the target's own
// package, plus the package-level types, constants and variables those
// declarations use, as one standalone source file, and reports the
// imported-package references (the Go analogue of printf and malloc) that
// the programmer must eliminate or replace with PAL modules.
package extract

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"flicker/internal/analysis"
)

// Result is the outcome of an extraction.
type Result struct {
	// Source is the standalone Go source for the PAL.
	Source []byte
	// Included lists the package-level declarations that were pulled in,
	// in emission order; a method is listed as Type.Method.
	Included []string
	// External lists qualified references to other packages (e.g.
	// "fmt.Printf") that must be eliminated or replaced by PAL modules.
	External []string
}

// Extract loads the package in dir (inside a module) and extracts the
// dependency closure of targets, each a function name or Type.Method.
func Extract(dir string, targets ...string) (*Result, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("extract: no target")
	}
	root, err := analysis.FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	l, err := analysis.NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkg, err := l.LoadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("extract: %w", err)
	}
	if len(pkg.TypeErrors) > 0 {
		return nil, fmt.Errorf("extract: %s: %w", pkg.Path, pkg.TypeErrors[0])
	}
	var roots []*types.Func
	for _, t := range targets {
		f, err := lookup(pkg.Types, t)
		if err != nil {
			return nil, err
		}
		roots = append(roots, f)
	}

	// The package's declarations, by the objects they define; a constant
	// brings its whole block, whose implicit values depend on its order.
	nodes := make(map[types.Object]ast.Node)
	block := make(map[types.Object][]types.Object)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				nodes[pkg.Info.Defs[d.Name]] = d
			case *ast.GenDecl:
				var objs []types.Object
				for _, s := range d.Specs {
					for _, id := range specNames(s) {
						nodes[pkg.Info.Defs[id]] = s
						objs = append(objs, pkg.Info.Defs[id])
					}
				}
				if d.Tok == token.CONST {
					for _, o := range objs {
						block[o] = objs
					}
				}
			}
		}
	}

	// Keep the closure's functions in this package and every declaration
	// of it they use, transitively.
	keep := make(map[types.Object]bool)
	var queue []types.Object
	push := func(obj types.Object) {
		if obj != nil && !keep[obj] && nodes[obj] != nil {
			keep[obj] = true
			queue = append(queue, obj)
		}
	}
	for f := range analysis.Closure(l, roots...) {
		if f.Pkg() == pkg.Types {
			push(f)
		}
	}
	external := make(map[string]bool)
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		for _, o := range block[obj] {
			push(o)
		}
		ast.Inspect(nodes[obj], func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok {
					if _, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
						external[id.Name+"."+n.Sel.Name] = true
						return false
					}
				}
			case *ast.Ident:
				push(pkg.Info.Uses[n])
			}
			return true
		})
	}

	// Emit in original declaration order for stability.
	res := &Result{}
	var decls []ast.Decl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if obj := pkg.Info.Defs[d.Name]; keep[obj] {
					name := d.Name.Name
					if recv := obj.(*types.Func).Type().(*types.Signature).Recv(); recv != nil {
						rt := types.TypeString(recv.Type(), func(*types.Package) string { return "" })
						name = strings.TrimPrefix(rt, "*") + "." + name
					}
					res.Included = append(res.Included, name)
					decls = append(decls, d)
				}
			case *ast.GenDecl:
				var specs []ast.Spec
				for _, s := range d.Specs {
					n := len(res.Included)
					for _, id := range specNames(s) {
						if keep[pkg.Info.Defs[id]] {
							res.Included = append(res.Included, id.Name)
						}
					}
					if len(res.Included) > n {
						specs = append(specs, s)
					}
				}
				if len(specs) > 0 {
					decls = append(decls, &ast.GenDecl{Tok: d.Tok, Specs: specs})
				}
			}
		}
	}
	out := &bytes.Buffer{}
	fmt.Fprintf(out, "// Code generated by flicker extract; target %s. DO NOT EDIT.\n", strings.Join(targets, ", "))
	fmt.Fprintf(out, "package pal%s\n\n", strings.ReplaceAll(targets[0], ".", ""))
	for _, d := range decls {
		if err := format.Node(out, l.Fset, d); err != nil {
			return nil, fmt.Errorf("extract: formatting: %w", err)
		}
		out.WriteString("\n\n")
	}
	formatted, err := format.Source(out.Bytes())
	if err != nil {
		// Emit unformatted rather than failing; the report still helps.
		formatted = out.Bytes()
	}
	res.Source = formatted
	for e := range external {
		res.External = append(res.External, e)
	}
	sort.Strings(res.External)
	return res, nil
}

// lookup resolves a target, Func or Type.Method, in pkg.
func lookup(pkg *types.Package, target string) (*types.Func, error) {
	name, method, isMethod := strings.Cut(target, ".")
	obj := pkg.Scope().Lookup(name)
	if isMethod {
		tn, ok := obj.(*types.TypeName)
		obj = nil
		if ok {
			obj, _, _ = types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg, method)
		}
	}
	if obj == nil {
		return nil, fmt.Errorf("extract: target function %q not found", target)
	}
	f, ok := obj.(*types.Func)
	if !ok {
		return nil, fmt.Errorf("extract: target %q is not a function", target)
	}
	return f, nil
}

// specNames returns the names a type, constant or variable spec declares.
func specNames(s ast.Spec) []*ast.Ident {
	switch s := s.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}
	case *ast.ValueSpec:
		return s.Names
	}
	return nil
}
