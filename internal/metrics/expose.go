package metrics

// Exposition: the Prometheus text format (for scraping monitors) and a JSON
// snapshot (for the `flicker serve` /stats endpoint and programmatic reads).

import (
	"fmt"
	"io"
	"strconv"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Families appear in registration order with their
// HELP/TYPE headers even when no series exist yet, so a scrape always shows
// which families the platform can emit.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.snapshotSeries() {
			if err := f.writeSeries(w, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSeries renders one labeled series of a family.
func (f *family) writeSeries(w io.Writer, s *series) error {
	s.mu.Lock()
	value := s.foldValueLocked()
	count, sum, binds := s.foldHistogramLocked()
	exemplars := append([]exemplar(nil), s.exemplars...)
	s.mu.Unlock()

	switch f.kind {
	case KindCounter, KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n",
			f.name, labelPairs(f.labels, s.labelValues), formatFloat(value))
		return err
	case KindHistogram:
		for i, b := range f.buckets {
			le := strconv.FormatFloat(b, 'g', -1, 64)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n",
				f.name, labelPairs(f.labels, s.labelValues, "le", le), binds[i],
				exemplarSuffix(exemplars, i)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n",
			f.name, labelPairs(f.labels, s.labelValues, "le", "+Inf"), count,
			exemplarSuffix(exemplars, len(f.buckets))); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
			f.name, labelPairs(f.labels, s.labelValues), formatFloat(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n",
			f.name, labelPairs(f.labels, s.labelValues), count)
		return err
	}
	return nil
}

// formatFloat renders a sample value the way Prometheus clients do: integral
// values without an exponent or trailing zeros.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// exemplarSuffix renders a bucket line's OpenMetrics-style exemplar
// (" # {trace_id=\"...\"} value"), or "" when the bucket holds none. The
// suffix follows the sample value, so scrapers that key on the line prefix
// are unaffected.
func exemplarSuffix(exemplars []exemplar, i int) string {
	if i >= len(exemplars) || exemplars[i].traceID == "" {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %s", exemplars[i].traceID, formatFloat(exemplars[i].value))
}

// Snapshot is a point-in-time copy of a registry, JSON-marshalable.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one metric family in a Snapshot.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help"`
	Type   string           `json:"type"`
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one labeled series in a FamilySnapshot. Value is set for
// counters and gauges; Count/Sum/Buckets for histograms (Buckets holds the
// cumulative count per upper bound, in DefaultLatencyBuckets order).
type SeriesSnapshot struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value,omitempty"`
	Count   uint64            `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Bounds  []float64         `json:"bounds,omitempty"`
	Buckets []uint64          `json:"buckets,omitempty"`
	// Exemplars links buckets to recent traces: one entry per bucket that
	// holds a trace-annotated observation (Bound "+Inf" for the overflow
	// bucket).
	Exemplars []ExemplarSnapshot `json:"exemplars,omitempty"`
}

// ExemplarSnapshot is one bucket's exemplar in a SeriesSnapshot.
type ExemplarSnapshot struct {
	Bound   string  `json:"le"`
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

// Snapshot captures every family and series for programmatic consumption.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	for _, f := range r.snapshotFamilies() {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.kind.String()}
		for _, s := range f.snapshotSeries() {
			s.mu.Lock()
			count, sum, binds := s.foldHistogramLocked()
			ss := SeriesSnapshot{
				Value: s.foldValueLocked(),
				Count: count,
				Sum:   sum,
			}
			if f.kind == KindHistogram {
				ss.Bounds = append([]float64(nil), f.buckets...)
				ss.Buckets = binds
				for i, ex := range s.exemplars {
					if ex.traceID == "" {
						continue
					}
					le := "+Inf"
					if i < len(f.buckets) {
						le = strconv.FormatFloat(f.buckets[i], 'g', -1, 64)
					}
					ss.Exemplars = append(ss.Exemplars, ExemplarSnapshot{
						Bound: le, TraceID: ex.traceID, Value: ex.value,
					})
				}
			}
			s.mu.Unlock()
			if len(f.labels) > 0 {
				ss.Labels = make(map[string]string, len(f.labels))
				for i, n := range f.labels {
					ss.Labels[n] = s.labelValues[i]
				}
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// Sum adds up one family's series whose label values include every given
// value (in any label position; no values selects every series). A counter
// or gauge series contributes its value, a histogram series the sum of its
// observations. An absent family sums to 0.
func (s Snapshot) Sum(family string, labelValues ...string) float64 {
	var total float64
	for _, f := range s.Families {
		if f.Name != family {
			continue
		}
		for _, ss := range f.Series {
			if !hasLabelValues(ss.Labels, labelValues) {
				continue
			}
			if f.Type == KindHistogram.String() {
				total += ss.Sum
			} else {
				total += ss.Value
			}
		}
	}
	return total
}

// hasLabelValues reports whether every wanted value is one of the labels'
// values.
func hasLabelValues(labels map[string]string, want []string) bool {
	for _, w := range want {
		found := false
		for _, v := range labels {
			if v == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
