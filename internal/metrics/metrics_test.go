package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterLabels(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("tpm_commands_total", "TPM commands.", "ordinal", "code")
	v.With("extend", "0").Inc()
	v.With("extend", "0").Add(2)
	v.With("seal", "1").Inc()
	if got := v.With("extend", "0").Value(); got != 3 {
		t.Fatalf("extend counter = %v, want 3", got)
	}
	if got := v.With("seal", "1").Value(); got != 1 {
		t.Fatalf("seal counter = %v, want 1", got)
	}
	// Re-registering the same family returns the same series.
	v2 := r.Counter("tpm_commands_total", "TPM commands.", "ordinal", "code")
	if got := v2.With("extend", "0").Value(); got != 3 {
		t.Fatalf("re-registered counter = %v, want 3", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("sessions_active", "Active sessions.").With()
	g.Set(5)
	g.Dec()
	g.Add(-2)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1}, "op").With("x")
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(0.5) // beyond the last bound: only +Inf
	h.ObserveDuration(2 * time.Millisecond)
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.001",op="x"} 1`,
		`lat_seconds_bucket{le="0.01",op="x"} 3`,
		`lat_seconds_bucket{le="0.1",op="x"} 3`,
		`lat_seconds_bucket{le="+Inf",op="x"} 4`,
		`lat_seconds_count{op="x"} 4`,
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestPrometheusHeadersForEmptyFamilies(t *testing.T) {
	// A registered family with no series still shows its HELP/TYPE header,
	// so a scrape reveals what the platform *can* emit.
	r := NewRegistry()
	r.Counter("dev_violations_total", "DEV-blocked DMA.", "device")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE dev_violations_total counter") {
		t.Fatalf("missing empty-family header in:\n%s", b.String())
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c", "k").With("v").Add(7)
	r.Histogram("h_seconds", "h", []float64{1}, "k").With("v").Observe(0.5)
	snap := r.Snapshot()
	if len(snap.Families) != 2 {
		t.Fatalf("families = %d, want 2", len(snap.Families))
	}
	if snap.Families[0].Series[0].Value != 7 {
		t.Fatalf("counter snapshot = %v, want 7", snap.Families[0].Series[0].Value)
	}
	hs := snap.Families[1].Series[0]
	if hs.Count != 1 || hs.Buckets[0] != 1 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
}

// Snapshot.Sum selects series by label values in any position, folds
// cell-backed series in, and reads a histogram as its observation sum.
func TestSnapshotSum(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("s_total", "s", "pipeline", "result")
	v.With("classic", "ok").Add(3)
	v.With("batch", "ok").Add(2)
	v.With("classic", "aborted").Inc()
	v.With("batch", "ok").Cell().Add(4)
	h := r.Histogram("p_seconds", "p", []float64{1}, "phase")
	h.With("skinit").Observe(0.25)
	h.With("skinit").Observe(0.5)
	h.With("accept").Observe(2)
	r.Gauge("g", "g").With().Set(-1.5)
	snap := r.Snapshot()
	for _, c := range []struct {
		family string
		values []string
		want   float64
	}{
		{"s_total", nil, 10},
		{"s_total", []string{"ok"}, 9},
		{"s_total", []string{"classic"}, 4},
		{"s_total", []string{"ok", "batch"}, 6},
		{"s_total", []string{"aborted", "batch"}, 0},
		{"s_total", []string{"partitioned"}, 0},
		{"p_seconds", []string{"skinit"}, 0.75},
		{"p_seconds", nil, 2.75},
		{"g", nil, -1.5},
		{"absent_total", nil, 0},
	} {
		if got := snap.Sum(c.family, c.values...); got != c.want {
			t.Errorf("Sum(%q, %q) = %v, want %v", c.family, c.values, got, c.want)
		}
	}
}

func TestNilRegistryIsUsable(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "x").With()
	c.Inc()
	if got := c.Value(); got != 1 {
		t.Fatalf("nil-registry counter = %v, want 1", got)
	}
	r.Histogram("y_seconds", "y", nil).With().Observe(0.1)
	r.Gauge("z", "z").With().Set(3)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry exposed %q", b.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "esc", "v").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines (run
// under -race in CI): concurrent series creation, updates, and scrapes.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			names := []string{"a", "b", "c"}
			cv := r.Counter("conc_total", "c", "op")
			hv := r.Histogram("conc_seconds", "h", nil, "op")
			gv := r.Gauge("conc_gauge", "g", "op")
			for i := 0; i < 500; i++ {
				op := names[(id+i)%len(names)]
				cv.With(op).Inc()
				hv.With(op).Observe(float64(i) / 1000)
				gv.With(op).Set(float64(i))
				if i%100 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	var total float64
	for _, op := range []string{"a", "b", "c"} {
		total += r.Counter("conc_total", "c", "op").With(op).Value()
	}
	if total != workers*500 {
		t.Fatalf("total = %v, want %d", total, workers*500)
	}
}
