// flicker serve: run Flicker sessions while exposing the observability
// surface over HTTP — Prometheus text exposition on /metrics, a summary
// derived from the registry plus the full registry snapshot on /stats, the
// security event log on /events (filterable with ?n= and ?kind=), a
// liveness probe on /healthz, the distributed-trace flight recorder on
// /traces and /traces/{id} (when -trace-sample > 0) and, for an in-process
// fabric, member attestation status on /hosts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"flicker"
)

// statsResponse is the /stats payload: a summary computed from the
// registry snapshot, and the snapshot itself.
type statsResponse struct {
	Summary statsSummary            `json:"summary"`
	Metrics flicker.MetricsSnapshot `json:"metrics"`
}

// statsSummary is the /stats headline. Every number is the sum of the
// /metrics samples named beside it, so the summary is a view of the
// registry and never a second count. A tier the process does not run
// (the fabric) reads 0.
type statsSummary struct {
	Sessions       float64            `json:"sessions"`         // flicker_sessions_total{result="ok"}
	Aborted        float64            `json:"aborted"`          // flicker_sessions_total{result="aborted"}
	AbortedByPhase map[string]float64 `json:"aborted_by_phase"` // flicker_session_aborts_total, by phase
	PhaseSeconds   map[string]float64 `json:"phase_seconds"`    // flicker_session_phase_seconds_sum, by phase
	ImageBuilds    float64            `json:"image_builds"`     // flicker_slb_image_cache_total{result="build"}
	ImageCacheHits float64            `json:"image_cache_hits"` // flicker_slb_image_cache_total{result="hit"}

	FabricRuns               float64 `json:"fabric_runs"`                // flicker_fabric_runs_total{result="ok"}
	FabricAdmissionsOK       float64 `json:"fabric_admissions_ok"`       // flicker_fabric_admissions_total{result="ok"}
	FabricAdmissionsRejected float64 `json:"fabric_admissions_rejected"` // flicker_fabric_admissions_total{result="rejected"}
	FabricResubmits          float64 `json:"fabric_resubmits"`           // flicker_fabric_resubmits_total
}

// summarize computes the /stats summary from a registry snapshot. It is the
// same for every serve mode: one platform, a sharded pool and a fabric all
// report into one registry.
func summarize(snap flicker.MetricsSnapshot) statsSummary {
	return statsSummary{
		Sessions:                 snap.Sum("flicker_sessions_total", "ok"),
		Aborted:                  snap.Sum("flicker_sessions_total", "aborted"),
		AbortedByPhase:           byPhase(snap, "flicker_session_aborts_total"),
		PhaseSeconds:             byPhase(snap, "flicker_session_phase_seconds"),
		ImageBuilds:              snap.Sum("flicker_slb_image_cache_total", "build"),
		ImageCacheHits:           snap.Sum("flicker_slb_image_cache_total", "hit"),
		FabricRuns:               snap.Sum("flicker_fabric_runs_total", "ok"),
		FabricAdmissionsOK:       snap.Sum("flicker_fabric_admissions_total", "ok"),
		FabricAdmissionsRejected: snap.Sum("flicker_fabric_admissions_total", "rejected"),
		FabricResubmits:          snap.Sum("flicker_fabric_resubmits_total"),
	}
}

// byPhase sums a phase-labeled family per phase.
func byPhase(snap flicker.MetricsSnapshot, family string) map[string]float64 {
	out := make(map[string]float64)
	for _, f := range snap.Families {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			phase := s.Labels["phase"]
			out[phase] = snap.Sum(family, phase)
		}
	}
	return out
}

// healthResponse is the /healthz payload. With a fabric controller the
// probe is fleet-aware: Sessions counts the runs completed through the
// controller, Fleet reports membership, and Status is "degraded" while
// some members are lost or draining and "down" when none can take work.
type healthResponse struct {
	Status   string       `json:"status"`
	Sessions float64      `json:"sessions"`
	Aborted  float64      `json:"aborted"`
	Fleet    *fleetHealth `json:"fleet,omitempty"`
}

// fleetHealth is the fabric membership part of /healthz.
type fleetHealth struct {
	Hosts int `json:"hosts"`
	Live  int `json:"live"`
}

// traceSummary is one row of the /traces listing.
type traceSummary struct {
	ID         string  `json:"trace_id"`
	Name       string  `json:"name"`
	PAL        string  `json:"pal,omitempty"`
	Outcome    string  `json:"outcome"`
	Trigger    string  `json:"trigger,omitempty"`
	Error      string  `json:"error,omitempty"`
	StartMs    float64 `json:"start_ms"`
	DurationMs float64 `json:"duration_ms"`
	Spans      int     `json:"spans"`
}

// traceDetail is the /traces/{id} payload: the flat trace plus its
// reassembled tree.
type traceDetail struct {
	*flicker.TraceData
	Tree *flicker.TraceNode `json:"tree"`
}

// addTraceEndpoints wires /traces (recent roots, ?n= / ?pal= / ?outcome=
// filters) and /traces/{id} (full span tree) onto a mux. A nil recorder —
// tracing disabled — serves an empty listing and 404s every ID, so the
// endpoint surface is stable across configurations.
func addTraceEndpoints(mux *http.ServeMux, fr *flicker.TraceFlightRecorder) {
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		n, _ := strconv.Atoi(q.Get("n"))
		out := make([]traceSummary, 0, 16)
		for _, td := range fr.Recent(n, q.Get("pal"), q.Get("outcome")) {
			out = append(out, traceSummary{
				ID:         td.ID,
				Name:       td.Name,
				PAL:        td.Attr("pal"),
				Outcome:    td.Outcome(),
				Trigger:    td.Trigger,
				Error:      td.Err,
				StartMs:    float64(td.Start) / float64(time.Millisecond),
				DurationMs: float64(td.Duration) / float64(time.Millisecond),
				Spans:      len(td.Spans),
			})
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/traces/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/traces/")
		td := fr.Get(id)
		if td == nil {
			http.Error(w, "no retained trace with id "+id, http.StatusNotFound)
			return
		}
		writeJSON(w, traceDetail{TraceData: td, Tree: td.Tree()})
	})
}

// eventsHandler serves the security event log with ?n= (most recent n) and
// ?kind= (exact event kind) filters. Events linked to a trace carry its
// trace_id, resolvable at /traces/{id}.
func eventsHandler(events *flicker.SecurityEventLog) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var evs []flicker.SecurityEvent
		if kind := r.URL.Query().Get("kind"); kind != "" {
			evs = events.EventsByKind(kind)
		} else {
			evs = events.Events()
		}
		if n, _ := strconv.Atoi(r.URL.Query().Get("n")); n > 0 && len(evs) > n {
			evs = evs[len(evs)-n:]
		}
		if evs == nil {
			evs = []flicker.SecurityEvent{}
		}
		writeJSON(w, evs)
	}
}

// newServeMux builds the read-only exposition handler over one registry
// and event log, which every serve mode folds into. fr is the flight
// recorder behind /traces (nil when tracing is off). A non-nil fabric
// controller adds /hosts and makes /healthz fleet-aware. Split out from
// cmdServe so tests can drive it through httptest without binding a port.
func newServeMux(reg *flicker.MetricsRegistry, events *flicker.SecurityEventLog, fr *flicker.TraceFlightRecorder, ctrl *flicker.FabricController) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			log.Printf("serve: /metrics: %v", err)
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		writeJSON(w, statsResponse{Summary: summarize(snap), Metrics: snap})
	})
	mux.HandleFunc("/events", eventsHandler(events))
	addTraceEndpoints(mux, fr)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		sum := summarize(reg.Snapshot())
		health := healthResponse{Status: "ok", Sessions: sum.Sessions, Aborted: sum.Aborted}
		if ctrl != nil {
			fleet := &fleetHealth{Hosts: len(ctrl.Hosts()), Live: ctrl.Live()}
			switch {
			case fleet.Live == 0:
				health.Status = "down"
			case fleet.Live < fleet.Hosts:
				health.Status = "degraded"
			}
			health.Sessions = sum.FabricRuns
			health.Fleet = fleet
		}
		writeJSON(w, health)
	})
	if ctrl != nil {
		// Hosts never returns nil, so an empty fleet renders as [].
		mux.HandleFunc("/hosts", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, ctrl.Hosts())
		})
	}
	return readOnly(mux)
}

// readOnly rejects non-read methods with 405 before any endpoint runs.
func readOnly(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// writeJSON renders v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("serve: encode: %v", err)
	}
}

// localTracer builds the serve-local tracer and flight recorder used by the
// pool modes (a fabric controller owns its own pair).
// Tracing off (sample <= 0) yields nils; every downstream consumer is
// nil-safe, so the wrapped runner costs one pointer check per session.
func localTracer(now func() time.Duration, sample float64, slow time.Duration) (*flicker.Tracer, *flicker.TraceFlightRecorder) {
	if sample <= 0 {
		return nil, nil
	}
	tr := flicker.NewTracer("serve", now)
	tr.SetSampleRate(sample)
	rec := flicker.NewTraceFlightRecorder(0, 0, slow)
	tr.OnComplete(rec.Offer)
	return tr, rec
}

// traceRunOnce wraps a session runner with a sampled "serve.run" root span:
// the session observer stream hangs phase and TPM-command spans under it,
// and the completed trace lands in the flight recorder via the tracer's
// OnComplete sink.
func traceRunOnce(tracer *flicker.Tracer, palName string, run func(flicker.SessionOptions) error, opts flicker.SessionOptions) func() error {
	return func() error {
		root := tracer.StartSampled("serve.run")
		o := opts
		if root != nil {
			root.SetAttr("pal", palName)
			o.TraceID = root.TraceHex()
			o.Observer = flicker.NewSessionTraceObserver(root)
		}
		err := run(o)
		root.EndErr(err)
		return err
	}
}

// buildFabric stands up an in-process attestation fabric: a controller and
// n host agents on one simulated switch, every host quote-verified at
// admission, all folding into one metrics registry. A background ticker
// drives heartbeats and periodic re-attestation.
func buildFabric(n int, palName string, target flicker.PAL, prof *flicker.Profile, sample float64, slow time.Duration, batch int, batchWait time.Duration, window int) (*flicker.FabricController, http.Handler, error) {
	reg := flicker.NewMetricsRegistry()
	events := flicker.NewSecurityEventLog(0)
	sw := flicker.NewNetSwitch(2*time.Millisecond, 0)
	sw.Instrument(reg, "fabric")
	ca, err := flicker.NewPrivacyCA([]byte("serve-fabric-ca"), 0)
	if err != nil {
		return nil, nil, err
	}
	ctrl, err := flicker.NewFabricController(sw, ca, flicker.FabricControllerConfig{
		Seed:          "serve-fabric",
		ReattestEvery: 30,
		Metrics:       reg,
		Events:        events,
		TraceSample:   sample,
		TraceSlow:     slow,
		MaxBatch:      batch,
		MaxWait:       batchWait,
		Window:        window,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := ctrl.RegisterPAL(target); err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("host%d", i)
		h, err := flicker.NewFabricHost(sw, ca, flicker.FabricHostConfig{
			Name: name,
			Platform: flicker.Config{
				Seed: "serve-fabric|" + name, Profile: prof,
				Metrics: reg, Events: events,
			},
		})
		if err != nil {
			return nil, nil, err
		}
		if err := h.RegisterPAL(target); err != nil {
			return nil, nil, err
		}
		if err := ctrl.Admit(name); err != nil {
			return nil, nil, fmt.Errorf("admitting %s: %w", name, err)
		}
	}
	log.Printf("serve: fabric up: %d/%d hosts admitted for PAL %q", ctrl.Live(), n, palName)
	go func() {
		for range time.Tick(time.Second) {
			ctrl.Tick()
		}
	}()
	return ctrl, newServeMux(reg, events, ctrl.Traces(), ctrl), nil
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9464", "listen address (use :0 for an ephemeral port)")
	palName := fs.String("pal", "hello", "demo PAL to run: hello, echo, seal")
	input := fs.String("input", "serve", "PAL input string")
	profile := fs.String("profile", "broadcom", "latency profile: broadcom, infineon, future")
	warm := fs.Int("sessions", 3, "sessions to run before serving (populates the metrics)")
	interval := fs.Duration("interval", 0, "keep running a session this often while serving (0 = only the warm-up sessions)")
	shards := fs.Int("shards", 1, "number of independent platforms behind the session pool")
	hosts := fs.Int("hosts", 0, "run an in-process attestation fabric of N quote-verified hosts (0 = no fabric; overrides -shards)")
	batch := fs.Int("batch", 1, "max requests coalesced into one session per shard, or with -hosts into one fabric wire frame (>1 enables the coalescer; 1 = one-member frames, which -fabric-window bounds too)")
	batchWait := fs.Duration("batch-wait", time.Millisecond, "longest a shard (with -hosts: the controller) holds a request for companions; after a hold that found none, a request runs at once while none is waiting behind it")
	fabricWindow := fs.Int("fabric-window", 4, "max in-flight wire frames per fabric host (pipelining window), batched or not")
	traceSample := fs.Float64("trace-sample", 0, "fraction of sessions to trace end-to-end (0 = tracing off, 1 = every session)")
	traceSlow := fs.Duration("trace-slow", 0, "retain every sampled trace at least this slow in the flight recorder (0 = default threshold)")
	fs.Parse(args)

	prof, err := profileByName(*profile)
	if err != nil {
		log.Fatal(err)
	}
	target, err := demoPAL(*palName)
	if err != nil {
		log.Fatal(err)
	}
	nonce := flicker.SHA1Sum([]byte("serve-nonce"))
	opts := flicker.SessionOptions{Input: []byte(*input), Nonce: &nonce}
	if *batch > 1 {
		// A verifier nonce binds one attestation to one session, so nonce-
		// carrying requests are never coalesced; drop it in batch mode.
		opts.Nonce = nil
	}

	// Every mode serves the same endpoints over one registry. Without a
	// fabric, the sessions run on a pool; one shard is a single platform.
	var (
		runOnce func() error
		mux     http.Handler
	)
	if *hosts > 0 {
		ctrl, fabricMux, err := buildFabric(*hosts, *palName, target, prof, *traceSample, *traceSlow, *batch, *batchWait, *fabricWindow)
		if err != nil {
			log.Fatal(err)
		}
		defer ctrl.Close()
		runOnce = func() error {
			_, err := ctrl.Run(*palName, []byte(*input))
			return err
		}
		mux = fabricMux
	} else {
		pool, err := flicker.NewPool(flicker.PoolConfig{
			Shards:   *shards,
			MaxBatch: *batch,
			MaxWait:  *batchWait,
			Platform: flicker.Config{Seed: "serve", Profile: prof},
		})
		if err != nil {
			log.Fatal(err)
		}
		tracer, rec := localTracer(pool.Shard(0).Clock.Now, *traceSample, *traceSlow)
		runOnce = traceRunOnce(tracer, *palName, func(o flicker.SessionOptions) error {
			res, err := pool.Run(target, o)
			if err != nil {
				return err
			}
			return res.PALError
		}, opts)
		mux = newServeMux(pool.Metrics(), pool.Events(), rec, nil)
	}

	for i := 0; i < *warm; i++ {
		if err := runOnce(); err != nil {
			log.Fatalf("serve: warm-up session %d: %v", i+1, err)
		}
	}
	if *interval > 0 {
		// The coalescer can only form groups from requests that are in
		// flight together, so batch mode keeps up to 2×batch sessions in
		// flight; otherwise one at a time. A tick that finds every slot
		// busy is skipped rather than queued.
		limit := 1
		if *batch > 1 {
			limit = 2 * *batch
		}
		inflight := make(chan struct{}, limit)
		go func() {
			for range time.Tick(*interval) {
				select {
				case inflight <- struct{}{}:
					go func() {
						defer func() { <-inflight }()
						if err := runOnce(); err != nil {
							log.Printf("serve: background session: %v", err)
						}
					}()
				default:
				}
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	traced := ""
	if *traceSample > 0 {
		traced = ", /traces + /traces/{id} (flight recorder)"
	}
	where, hostsEndpoint := fmt.Sprintf("%d shard(s)", *shards), ""
	if *hosts > 0 {
		where, hostsEndpoint = fmt.Sprintf("a %d-host fabric", *hosts), ", /hosts (attestation status)"
	}
	fmt.Printf("flicker serve: %d warm-up session(s) done on %s; listening on http://%s\n", *warm, where, ln.Addr())
	fmt.Println("endpoints: /metrics (Prometheus), /stats (JSON), /events (JSON), /healthz" + hostsEndpoint + traced)
	log.Fatal(http.Serve(ln, mux))
}
