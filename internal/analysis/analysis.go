package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message states the violated invariant and the offending construct.
	Message string
	// Chain, when the finding crossed call boundaries, lists the callee
	// chain (funcIDs, outermost first) from the reported position down to
	// the sink.
	Chain []string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name is the analyzer's identifier, used in output and in
	// //flickervet:allow directives.
	Name string
	// Doc is a one-line description for the catalog listing.
	Doc string
	// Scope reports whether the analyzer applies to a package import path.
	// Out-of-scope packages are skipped entirely.
	Scope func(pkgPath string) bool
	// NeedsInterp requests the interprocedural summary engine; RunReport builds
	// one Interp over every loaded package and shares it across passes.
	NeedsInterp bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one (analyzer, package) run.
type Pass struct {
	Analyzer *Analyzer
	Loader   *Loader
	Pkg      *Package
	// Interp is the shared interprocedural engine, non-nil when the
	// analyzer declares NeedsInterp.
	Interp *Interp

	diags *[]Diagnostic
}

// Fset returns the file set positioning the package.
func (p *Pass) Fset() *token.FileSet { return p.Loader.Fset }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportChain(pos, nil, format, args...)
}

// reportChain records a finding whose sink sits at the end of a callee
// chain (for the interprocedural analyzers).
func (p *Pass) reportChain(pos token.Pos, chain []string, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset().Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// All returns the flickervet analyzer catalog.
func All() []*Analyzer {
	return []*Analyzer{
		UntrustedLen,
		WallTime,
		ScrubPair,
		LocalityCheck,
		MetricHandle,
		SecretFlow,
		AtomicSafe,
		FrameKind,
	}
}

// RunReport executes the analyzers over the packages (each analyzer only
// where its scope matches) and returns the findings no //flickervet:allow
// directive suppresses, sorted by position, with the machine-readable
// report: suppressed findings are kept there with their directive reasons,
// and per-analyzer counts cover every analyzer that ran.
func RunReport(l *Loader, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, *VetReport) {
	var interp *Interp
	for _, a := range analyzers {
		if a.NeedsInterp {
			// One engine for the whole run, over everything the loader has
			// seen, so summaries cross package (and fixture) boundaries.
			interp = NewInterp(l, l.Packages())
			break
		}
	}
	var diags []Diagnostic
	var suppressed []SuppressedDiagnostic
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		allows := collectAllows(l.Fset, pkg)
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg.Path) {
				continue
			}
			var got []Diagnostic
			pass := &Pass{Analyzer: a, Loader: l, Pkg: pkg, Interp: interp, diags: &got}
			a.Run(pass)
			for _, d := range got {
				if dir, ok := allows.match(d); ok {
					suppressed = append(suppressed, SuppressedDiagnostic{Diagnostic: d, Reason: dir.reason})
				} else {
					diags = append(diags, d)
				}
			}
		}
	}
	sortDiags(diags)
	sort.Slice(suppressed, func(i, j int) bool {
		return lessDiag(suppressed[i].Diagnostic, suppressed[j].Diagnostic)
	})
	return diags, buildReport(l.Module, analyzers, diags, suppressed)
}

// SuppressedDiagnostic is a finding silenced by an allow directive,
// retained for the report.
type SuppressedDiagnostic struct {
	Diagnostic
	// Reason is the justification recorded in the directive.
	Reason string
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool { return lessDiag(diags[i], diags[j]) })
}

func lessDiag(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	return a.Analyzer < b.Analyzer
}

// prefixScope builds a Scope function matching any of the given import
// paths, each matching itself and everything beneath it.
func prefixScope(paths ...string) func(string) bool {
	return func(pkg string) bool {
		for _, p := range paths {
			if pkg == p || strings.HasPrefix(pkg, p+"/") {
				return true
			}
		}
		return false
	}
}

// --- Directives -------------------------------------------------------------

// allowDirective is one parsed //flickervet:allow name(reason) comment.
type allowDirective struct {
	analyzer string
	reason   string
}

// allowSet maps file -> line -> directives on that line.
type allowSet map[string]map[int][]allowDirective

// directivePrefix introduces a flickervet suppression comment.
const directivePrefix = "//flickervet:allow"

// parseAllow parses one comment text into a directive, if it is one.
// Syntax: //flickervet:allow <analyzer>(<reason>). The reason is mandatory:
// a suppression without a recorded justification defeats the point.
func parseAllow(text string) (allowDirective, bool) {
	rest, ok := strings.CutPrefix(text, directivePrefix)
	if !ok {
		return allowDirective{}, false
	}
	rest = strings.TrimSpace(rest)
	open := strings.IndexByte(rest, '(')
	if open <= 0 || !strings.HasSuffix(rest, ")") {
		return allowDirective{}, false
	}
	name := strings.TrimSpace(rest[:open])
	reason := strings.TrimSpace(rest[open+1 : len(rest)-1])
	if name == "" || reason == "" {
		return allowDirective{}, false
	}
	return allowDirective{analyzer: name, reason: reason}, true
}

// collectAllows gathers every allow directive in the package, keyed by the
// file and line the directive sits on.
func collectAllows(fset *token.FileSet, pkg *Package) allowSet {
	set := make(allowSet)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if set[pos.Filename] == nil {
					set[pos.Filename] = make(map[int][]allowDirective)
				}
				set[pos.Filename][pos.Line] = append(set[pos.Filename][pos.Line], d)
			}
		}
	}
	return set
}

// match returns the directive suppressing the diagnostic: one on its line
// or the line immediately above it naming its analyzer.
func (s allowSet) match(d Diagnostic) (allowDirective, bool) {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return allowDirective{}, false
	}
	for _, ln := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, a := range lines[ln] {
			if a.analyzer == d.Analyzer {
				return a, true
			}
		}
	}
	return allowDirective{}, false
}

// --- Shared AST/type helpers ------------------------------------------------

// funcDeclOf maps every *types.Func defined in the package to its
// declaration, for analyzers that need to look inside called functions.
func funcDeclOf(pkg *Package) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				out[obj] = fd
			}
		}
	}
	return out
}

// calleeFunc resolves a call's function expression (or a function value)
// to the *types.Func it statically names, or nil for dynamic calls
// (function values, interface methods resolve to the interface method
// object).
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isPkgObject reports whether obj is the named object from the package with
// the given import path ("time", "flicker/internal/tpm", ...).
func isPkgObject(obj types.Object, pkgPath, name string) bool {
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == pkgPath && obj.Name() == name
}
