package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"flicker"
)

func get(t *testing.T, mux http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// poolMux is the exposition handler cmdServe builds for a pool.
func poolMux(p *flicker.Pool) http.Handler {
	return newServeMux(p.Metrics(), p.Events(), nil, nil)
}

func TestServeMetricsEndpoint(t *testing.T) {
	mux := poolMux(servePool(t, 1, 1))
	rec := get(t, mux, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body := rec.Body.String()
	for _, family := range []string{
		"flicker_tpm_command_seconds",
		"flicker_dev_violations_total",
		"flicker_session_phase_seconds",
		"flicker_tpm_commands_total",
		"flicker_sessions_total",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing family %q", family)
		}
	}
	// A session ran, so the exposition must carry real samples, not just
	// headers: at least one TPM command series and a session count.
	if !strings.Contains(body, `flicker_sessions_total{pipeline="classic",result="ok"} 1`) {
		t.Errorf("/metrics missing completed-session sample:\n%s", body)
	}
}

func TestServeStatsEndpoint(t *testing.T) {
	mux := poolMux(servePool(t, 1, 1))
	rec := get(t, mux, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /stats = %d, want 200", rec.Code)
	}
	var got statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	if got.Summary.Sessions != 1 {
		t.Errorf("stats.summary.sessions = %v, want 1", got.Summary.Sessions)
	}
	if len(got.Metrics.Families) == 0 {
		t.Error("stats.metrics has no families")
	}
}

func TestServeHealthAndEvents(t *testing.T) {
	mux := poolMux(servePool(t, 1, 1))

	rec := get(t, mux, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", rec.Code)
	}
	var health healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	if health.Status != "ok" || health.Sessions != 1 {
		t.Errorf("healthz = %+v, want status ok with 1 session", health)
	}

	rec = get(t, mux, "/events")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /events = %d, want 200", rec.Code)
	}
	var events []flicker.SecurityEvent
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatalf("decode /events: %v", err)
	}
	// A clean hello session still resets PCR 17 via the locality-4 hash
	// sequence, so the log is non-empty.
	found := false
	for _, e := range events {
		if e.Kind == "pcr17-reset" {
			found = true
		}
	}
	if !found {
		t.Errorf("/events has no pcr17-reset entry: %+v", events)
	}
}

func TestServeRejectsWrites(t *testing.T) {
	mux := poolMux(servePool(t, 1, 1))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/metrics", strings.NewReader("x")))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", rec.Code)
	}
}

// servePool boots a pool the way cmdServe does (one shard is the
// single-platform mode) and runs a few demo sessions through it so the
// metrics have samples to expose.
func servePool(t *testing.T, shards, sessions int) *flicker.Pool {
	t.Helper()
	pool, err := flicker.NewPool(flicker.PoolConfig{
		Shards:   shards,
		Platform: flicker.Config{Seed: "serve-pool-test"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	target, err := demoPAL("hello")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sessions; i++ {
		res, err := pool.Run(target, flicker.SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.PALError != nil {
			t.Fatal(res.PALError)
		}
	}
	return pool
}

func TestServePoolEndpoints(t *testing.T) {
	mux := poolMux(servePool(t, 3, 4))

	rec := get(t, mux, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", rec.Code)
	}
	body := rec.Body.String()
	for _, family := range []string{
		"flicker_pool_submissions_total",
		"flicker_sessions_total",
		"flicker_tpm_commands_total",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("pool /metrics missing family %q", family)
		}
	}

	rec = get(t, mux, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /stats = %d, want 200", rec.Code)
	}
	var stats statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("decode pool /stats: %v", err)
	}
	if stats.Summary.Sessions != 4 {
		t.Errorf("pool stats = %+v, want 4 sessions", stats.Summary)
	}
	// Affinity keeps every session of one PAL on its home shard: one image
	// link, then cache hits.
	if stats.Summary.ImageBuilds != 1 || stats.Summary.ImageCacheHits != 3 {
		t.Errorf("pool image cache = %v builds / %v hits, want 1 / 3", stats.Summary.ImageBuilds, stats.Summary.ImageCacheHits)
	}

	rec = get(t, mux, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", rec.Code)
	}
	var health healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("decode pool /healthz: %v", err)
	}
	if health.Status != "ok" || health.Sessions != 4 || health.Fleet != nil {
		t.Errorf("pool healthz = %+v, want ok/4 sessions and no fleet", health)
	}

	rec = get(t, mux, "/events")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /events = %d, want 200", rec.Code)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/stats", strings.NewReader("x")))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST pool /stats = %d, want 405", rec.Code)
	}
}

// serveFabric stands up a small in-process fabric and pushes a few
// sessions through it.
func serveFabric(t *testing.T, hosts, sessions int, sample float64) (*flicker.FabricController, http.Handler) {
	t.Helper()
	target, err := demoPAL("hello")
	if err != nil {
		t.Fatal(err)
	}
	ctrl, mux, err := buildFabric(hosts, "hello", target, nil, sample, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close() })
	for i := 0; i < sessions; i++ {
		if _, err := ctrl.Run("hello", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	return ctrl, mux
}

func TestServeFabricEndpoints(t *testing.T) {
	_, mux := serveFabric(t, 2, 3, 0)

	rec := get(t, mux, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", rec.Code)
	}
	body := rec.Body.String()
	for _, family := range []string{
		"flicker_fabric_admissions_total",
		"flicker_fabric_runs_total",
		"flicker_net_roundtrips_total",
		"flicker_sessions_total",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("fabric /metrics missing family %q", family)
		}
	}

	rec = get(t, mux, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /stats = %d, want 200", rec.Code)
	}
	var stats statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("decode fabric /stats: %v", err)
	}
	if stats.Summary.FabricRuns != 3 || stats.Summary.FabricAdmissionsOK != 2 {
		t.Errorf("fabric stats = %+v, want 3 runs / 2 admissions", stats.Summary)
	}

	rec = get(t, mux, "/hosts")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /hosts = %d, want 200", rec.Code)
	}
	var members []flicker.FabricHostStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &members); err != nil {
		t.Fatalf("decode /hosts: %v", err)
	}
	if len(members) != 2 {
		t.Fatalf("/hosts lists %d members, want 2", len(members))
	}
	for _, m := range members {
		if m.State != "admitted" {
			t.Errorf("host %s state = %q, want admitted", m.Name, m.State)
		}
		if len(m.PALs) == 0 {
			t.Errorf("host %s advertises no PALs", m.Name)
		}
	}

	rec = get(t, mux, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", rec.Code)
	}
	var health healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("decode fabric /healthz: %v", err)
	}
	if health.Status != "ok" || health.Fleet == nil || health.Fleet.Hosts != 2 || health.Fleet.Live != 2 {
		t.Errorf("fabric healthz = %+v, want ok/2/2", health)
	}
	if health.Sessions != 3 {
		t.Errorf("fabric healthz sessions = %v, want the 3 controller runs", health.Sessions)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/hosts", strings.NewReader("x")))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /hosts = %d, want 405", rec.Code)
	}
}

// The /events filters: ?kind= keeps only one event kind, ?n= the most
// recent n entries.
func TestServeEventsFilters(t *testing.T) {
	// A second session appends a second pcr17-reset event, giving ?n= a
	// log deep enough to truncate.
	mux := poolMux(servePool(t, 1, 2))

	var events []flicker.SecurityEvent
	if err := json.Unmarshal(get(t, mux, "/events?kind=pcr17-reset").Body.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("/events?kind=pcr17-reset is empty")
	}
	for _, e := range events {
		if e.Kind != "pcr17-reset" {
			t.Errorf("kind filter leaked %+v", e)
		}
	}

	var all, last []flicker.SecurityEvent
	if err := json.Unmarshal(get(t, mux, "/events").Body.Bytes(), &all); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(get(t, mux, "/events?n=1").Body.Bytes(), &last); err != nil {
		t.Fatal(err)
	}
	if len(all) < 2 {
		t.Fatalf("want at least 2 events to exercise ?n=, got %d", len(all))
	}
	if len(last) != 1 || last[0] != all[len(all)-1] {
		t.Errorf("/events?n=1 = %+v, want the newest of %d events", last, len(all))
	}

	if err := json.Unmarshal(get(t, mux, "/events?kind=no-such-kind").Body.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("bogus kind filter returned %+v", events)
	}
}

// A traced pool serve exposes its flight recorder: /traces lists the
// session roots (filterable by PAL and outcome) and /traces/{id} returns
// the reassembled span tree.
func TestServeTraceEndpoints(t *testing.T) {
	p := servePool(t, 1, 0)
	target, err := demoPAL("hello")
	if err != nil {
		t.Fatal(err)
	}
	tracer, rec := localTracer(p.Shard(0).Clock.Now, 1.0, 0)
	runOnce := traceRunOnce(tracer, "hello", func(o flicker.SessionOptions) error {
		res, err := p.Run(target, o)
		if err != nil {
			return err
		}
		return res.PALError
	}, flicker.SessionOptions{})
	for i := 0; i < 3; i++ {
		if err := runOnce(); err != nil {
			t.Fatal(err)
		}
	}
	mux := newServeMux(p.Metrics(), p.Events(), rec, nil)

	var list []traceSummary
	if err := json.Unmarshal(get(t, mux, "/traces?pal=hello&outcome=ok").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("/traces lists %d roots, want 3: %+v", len(list), list)
	}
	for _, s := range list {
		if s.Name != "serve.run" || s.Outcome != "ok" || s.PAL != "hello" || s.Spans < 3 {
			t.Errorf("trace summary = %+v", s)
		}
	}

	if err := json.Unmarshal(get(t, mux, "/traces?pal=no-such-pal").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Errorf("PAL filter leaked %+v", list)
	}

	if err := json.Unmarshal(get(t, mux, "/traces").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	detail := get(t, mux, "/traces/"+list[0].ID)
	if detail.Code != http.StatusOK {
		t.Fatalf("GET /traces/%s = %d, want 200", list[0].ID, detail.Code)
	}
	var td struct {
		ID   string             `json:"trace_id"`
		Tree *flicker.TraceNode `json:"tree"`
	}
	if err := json.Unmarshal(detail.Body.Bytes(), &td); err != nil {
		t.Fatalf("decode trace detail: %v", err)
	}
	if td.Tree == nil || td.Tree.Name != "serve.run" || len(td.Tree.Children) == 0 {
		t.Fatalf("trace tree = %+v, want serve.run root with children", td.Tree)
	}

	if got := get(t, mux, "/traces/ffffffffffffffff").Code; got != http.StatusNotFound {
		t.Errorf("GET /traces/<unknown> = %d, want 404", got)
	}
}

// With tracing off the endpoint surface stays stable: /traces serves an
// empty listing and every ID 404s.
func TestServeTraceEndpointsDisabled(t *testing.T) {
	mux := poolMux(servePool(t, 1, 1))
	var list []traceSummary
	if err := json.Unmarshal(get(t, mux, "/traces").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Errorf("/traces with tracing off = %+v", list)
	}
	if got := get(t, mux, "/traces/0000000000000001").Code; got != http.StatusNotFound {
		t.Errorf("GET /traces/{id} with tracing off = %d, want 404", got)
	}
}

// A traced fabric serve surfaces controller-assembled traces that span the
// wire: the detail tree reaches the remote host's session spans.
func TestServeFabricTraceEndpoints(t *testing.T) {
	_, mux := serveFabric(t, 2, 2, 1.0)
	var list []traceSummary
	if err := json.Unmarshal(get(t, mux, "/traces?outcome=ok").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) < 2 {
		t.Fatalf("fabric /traces lists %d roots, want >= 2", len(list))
	}
	detail := get(t, mux, "/traces/"+list[0].ID)
	if detail.Code != http.StatusOK {
		t.Fatalf("GET /traces/%s = %d, want 200", list[0].ID, detail.Code)
	}
	body := detail.Body.String()
	for _, span := range []string{"fabric.run", "host.run", `"session"`, "skinit"} {
		if !strings.Contains(body, span) {
			t.Errorf("fabric trace detail missing span %q", span)
		}
	}
}

// The fleet-aware health endpoint degrades when a member is lost and goes
// down when none remain.
func TestServeFabricHealthDegrades(t *testing.T) {
	ctrl, mux := serveFabric(t, 1, 1, 0)
	var health healthResponse
	if err := json.Unmarshal(get(t, mux, "/healthz").Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Fatalf("healthz before drain = %+v", health)
	}
	if err := ctrl.Drain("host0"); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(get(t, mux, "/healthz").Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "down" || health.Fleet == nil || health.Fleet.Live != 0 {
		t.Fatalf("healthz after draining the only host = %+v, want down/0 live", health)
	}
}

// sample is one parsed Prometheus text-exposition line.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseExposition reads the samples of a /metrics body, skipping comment
// lines and exemplar suffixes.
func parseExposition(t *testing.T, body string) []sample {
	t.Helper()
	var out []sample
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample value in %q: %v", line, err)
		}
		s := sample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			rest := s.name[i+1 : len(s.name)-1]
			s.name = s.name[:i]
			for rest != "" {
				key, quoted, _ := strings.Cut(rest, "=")
				q, err := strconv.QuotedPrefix(quoted)
				if err != nil {
					t.Fatalf("label %s in %q: %v", key, line, err)
				}
				s.labels[key], _ = strconv.Unquote(q)
				rest = strings.TrimPrefix(quoted[len(q):], ",")
			}
		}
		out = append(out, s)
	}
	return out
}

// sumSamples adds up the samples of one name whose labels include match.
func sumSamples(samples []sample, name string, match map[string]string) float64 {
	var total float64
	for _, s := range samples {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range match {
			ok = ok && s.labels[k] == v
		}
		if ok {
			total += s.value
		}
	}
	return total
}

// Every number on /stats.summary is the sum of the matching /metrics
// samples, in every serve mode, and /healthz reports the same session
// count.
func TestServeStatsMatchesMetrics(t *testing.T) {
	scalars := map[string]struct {
		name  string
		match map[string]string
	}{
		"sessions":                   {"flicker_sessions_total", map[string]string{"result": "ok"}},
		"aborted":                    {"flicker_sessions_total", map[string]string{"result": "aborted"}},
		"image_builds":               {"flicker_slb_image_cache_total", map[string]string{"result": "build"}},
		"image_cache_hits":           {"flicker_slb_image_cache_total", map[string]string{"result": "hit"}},
		"fabric_runs":                {"flicker_fabric_runs_total", map[string]string{"result": "ok"}},
		"fabric_admissions_ok":       {"flicker_fabric_admissions_total", map[string]string{"result": "ok"}},
		"fabric_admissions_rejected": {"flicker_fabric_admissions_total", map[string]string{"result": "rejected"}},
		"fabric_resubmits":           {"flicker_fabric_resubmits_total", nil},
	}
	perPhase := map[string]string{
		"aborted_by_phase": "flicker_session_aborts_total",
		"phase_seconds":    "flicker_session_phase_seconds_sum",
	}
	target, err := demoPAL("hello")
	if err != nil {
		t.Fatal(err)
	}
	// pooled runs sessions on a pool, one of them aborted in skinit.
	pooled := func(shards int) func(t *testing.T) http.Handler {
		return func(t *testing.T) http.Handler {
			p := servePool(t, shards, 3)
			if _, err := p.Run(target, flicker.SessionOptions{FailPhase: "skinit"}); !errors.Is(err, flicker.ErrFaultInjected) {
				t.Fatalf("FailPhase session = %v, want the injected fault", err)
			}
			return poolMux(p)
		}
	}
	for _, mode := range []struct {
		name   string
		mux    func(t *testing.T) http.Handler
		fabric bool
	}{
		{"single-platform", pooled(1), false},
		{"3-shard pool", pooled(3), false},
		{"2-host fabric", func(t *testing.T) http.Handler {
			_, mux := serveFabric(t, 2, 3, 0)
			return mux
		}, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			mux := mode.mux(t)
			samples := parseExposition(t, get(t, mux, "/metrics").Body.String())
			var stats struct {
				Summary map[string]json.RawMessage `json:"summary"`
			}
			if err := json.Unmarshal(get(t, mux, "/stats").Body.Bytes(), &stats); err != nil {
				t.Fatal(err)
			}
			summary := make(map[string]float64)
			for key, raw := range stats.Summary {
				if name, ok := perPhase[key]; ok {
					var phases map[string]float64
					if err := json.Unmarshal(raw, &phases); err != nil {
						t.Fatalf("summary.%s: %v", key, err)
					}
					for phase, got := range phases {
						if want := sumSamples(samples, name, map[string]string{"phase": phase}); got != want {
							t.Errorf("summary.%s[%s] = %v, /metrics %s sums to %v", key, phase, got, name, want)
						}
					}
					for _, s := range samples {
						if _, ok := phases[s.labels["phase"]]; s.name == name && !ok {
							t.Errorf("summary.%s lacks phase %q", key, s.labels["phase"])
						}
					}
					continue
				}
				sel, ok := scalars[key]
				if !ok {
					t.Errorf("summary.%s has no /metrics derivation in this test", key)
					continue
				}
				var got float64
				if err := json.Unmarshal(raw, &got); err != nil {
					t.Fatalf("summary.%s: %v", key, err)
				}
				if want := sumSamples(samples, sel.name, sel.match); got != want {
					t.Errorf("summary.%s = %v, /metrics %s%v sums to %v", key, got, sel.name, sel.match, want)
				}
				summary[key] = got
			}
			if len(stats.Summary) != len(scalars)+len(perPhase) {
				t.Errorf("summary has fields %v, want the %d this test derives", stats.Summary, len(scalars)+len(perPhase))
			}

			var health healthResponse
			if err := json.Unmarshal(get(t, mux, "/healthz").Body.Bytes(), &health); err != nil {
				t.Fatal(err)
			}
			want := summary["sessions"]
			if mode.fabric {
				want = summary["fabric_runs"]
				if want != 3 {
					t.Errorf("fabric_runs = %v, want 3", want)
				}
			} else if summary["sessions"] != 3 || summary["aborted"] != 1 {
				t.Errorf("sessions/aborted = %v/%v, want 3/1", summary["sessions"], summary["aborted"])
			}
			if health.Sessions != want {
				t.Errorf("/healthz sessions = %v, /stats summary says %v", health.Sessions, want)
			}
		})
	}
}
