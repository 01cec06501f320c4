package fabric

import (
	"flicker/internal/metrics"
	"flicker/internal/sched"
)

// fabricMetrics holds the controller's pre-resolved series handles. Label
// sets are closed, so every handle is resolved once at construction (the
// metrichandle discipline); the per-host in-flight gauge is resolved per
// member at admission, the only time a new label value appears.
type fabricMetrics struct {
	reg *metrics.Registry

	admissionOK       *metrics.Counter
	admissionRejected *metrics.Counter

	hostUp       *metrics.Counter
	hostDown     *metrics.Counter
	hostDrained  *metrics.Counter
	reattestOK   *metrics.Counter
	reattestFail *metrics.Counter

	resubmits *metrics.Counter
	runsOK    *metrics.Counter
	runsErr   *metrics.Counter

	// runSeconds is the controller-side end-to-end session latency — queue,
	// network, failover retries and all — the distribution /traces exemplars
	// index into.
	runSeconds *metrics.Histogram

	// Wire-frame coalescer instrumentation, mirroring the pool's
	// flicker_pool_batch_* pair one tier up: runs per frame and why each
	// group flushed, plus how often dispatch blocked on a full per-host
	// pipelining window.
	batchSize   *metrics.Histogram
	batchFlush  map[string]*metrics.Counter
	windowWaits *metrics.Counter

	inflight *metrics.GaugeVec
}

func newFabricMetrics(reg *metrics.Registry) *fabricMetrics {
	adm := reg.Counter("flicker_fabric_admissions_total",
		"Host admission attempts by quote-verification result.", "result")
	ev := reg.Counter("flicker_fabric_host_events_total",
		"Fleet membership events.", "event")
	runs := reg.Counter("flicker_fabric_runs_total",
		"Sessions dispatched through the controller by outcome.", "result")
	flush := reg.Counter("flicker_fabric_batch_flush_total",
		"Controller wire-frame coalescer flushes, by reason.", "reason")
	return &fabricMetrics{
		reg:               reg,
		admissionOK:       adm.With("ok"),
		admissionRejected: adm.With("rejected"),
		hostUp:            ev.With("up"),
		hostDown:          ev.With("down"),
		hostDrained:       ev.With("drained"),
		reattestOK:        ev.With("reattest_ok"),
		reattestFail:      ev.With("reattest_fail"),
		resubmits: reg.Counter("flicker_fabric_resubmits_total",
			"Accepted jobs resubmitted to a surviving host after a member failed.").With(),
		runsOK:  runs.With("ok").Cell(),
		runsErr: runs.With("pal_error").Cell(),
		runSeconds: reg.Histogram("flicker_fabric_run_seconds",
			"End-to-end controller-observed session latency, including failover.", nil).With().Cell(),
		batchSize: reg.Histogram("flicker_fabric_batch_size",
			"Runs coalesced per wire frame (1 = singleton fallback).",
			[]float64{1, 2, 4, 8, 16, 32}).With().Cell(),
		batchFlush: map[string]*metrics.Counter{
			sched.FlushFull:    flush.With(sched.FlushFull).Cell(),
			sched.FlushTimeout: flush.With(sched.FlushTimeout).Cell(),
			sched.FlushDrain:   flush.With(sched.FlushDrain).Cell(),
			sched.FlushIdle:    flush.With(sched.FlushIdle).Cell(),
		},
		windowWaits: reg.Counter("flicker_fabric_window_waits_total",
			"Frame dispatches that blocked on a full per-host in-flight window.").With().Cell(),
		inflight: reg.Gauge("flicker_fabric_inflight",
			"Controller-observed in-flight sessions per host.", "host"),
	}
}
