package analysis

// metrichandle: hot-path packages must not look a metrics series up per
// event. Every CounterVec/GaugeVec/HistogramVec.With call joins its label
// values into a series key and takes the family mutex; doing that on every
// TPM command, TIS submit, or DMA transaction is the allocation/latency
// class PR 4 hand-fixed by caching resolved handles (tpm.okCounters,
// tis.cachedOK). The analyzer flags the syntactic signature of the bug — a
// freshly looked-up series consumed in the same expression:
//
//	vec.With(label).Inc()            // flagged: per-event lookup
//	h := vec.With(label); ... h.Inc() // fine: handle cached by the caller
//
// Cold paths (fault/error counters that fire at most once per incident)
// keep the direct form under //flickervet:allow metrichandle(reason).

import (
	"go/ast"
)

// metricsPkg is the module's metrics registry package.
const metricsPkg = "flicker/internal/metrics"

// metricConsumers are the recording methods that mark a series lookup as
// consumed-per-event when chained directly onto With.
var metricConsumers = map[string]bool{
	"Inc": true, "Dec": true, "Add": true, "Set": true,
	"Observe": true, "ObserveDuration": true,
	"ObserveExemplar": true, "ObserveDurationExemplar": true,
}

// MetricHandle reports per-event metrics series lookups in hot-path
// packages.
var MetricHandle = &Analyzer{
	Name: "metrichandle",
	Doc: "hot-path packages must use cached metric handles, not per-event " +
		"With(label...) series lookups",
	Scope: prefixScope(
		"flicker/internal/tpm",
		"flicker/internal/hw",
		"flicker/internal/core",
		"flicker/internal/pool",
		// The fabric's run/admit paths observe per-session histograms (now
		// with exemplars) and the trace hot path must never acquire a
		// registry lookup per span.
		"flicker/internal/fabric",
		"flicker/internal/trace",
	),
	Run: runMetricHandle,
}

func runMetricHandle(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			outer, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(outer.Fun).(*ast.SelectorExpr)
			if !ok || !metricConsumers[sel.Sel.Name] {
				return true
			}
			inner, ok := ast.Unparen(sel.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			w := calleeFunc(pass.Pkg.Info, inner.Fun)
			if w == nil || w.Name() != "With" || w.Pkg() == nil || w.Pkg().Path() != metricsPkg {
				return true
			}
			pass.Reportf(inner.Pos(),
				"metrics series resolved per event (With(...).%s()); cache the handle at registration "+
					"time (the tpm.okCounters / tis.cachedOK idiom) or annotate a cold path",
				sel.Sel.Name)
			return true
		})
	}
}
