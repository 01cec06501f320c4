package main

// metricDef names a metric with its unit. Only lists the workloads a
// metric exists on; nil means all four. README.md is the full dictionary:
// each metric's layer, and which end-to-end metric it should move on which
// workload.
type metricDef struct {
	Name string
	Unit string
	Only []string
}

const (
	wHello  = "classic_hello"
	wSeal   = "classic_seal"
	wPool   = "pool_spread"
	wFabric = "fabric_mixed"
)

// e2eMetrics are what a user of the system sees, measured with tracing off
// and reported per workload as the median over repetitions. BENCHMARK.json
// gives their regression bounds.
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "allocs_per_req", Unit: "count"},
	{Name: "peak_rss_mb", Unit: "MB"},
}

// loadMetrics are the load's wall-clock rate and latencies. A user sees
// them too, but on a shared 2-vCPU host they drift by a fifth or more
// within minutes (README.md), so they carry no bound: the untraced run
// prints them beside the end-to-end metrics and the traced run reports them
// among the per-layer ones.
var loadMetrics = []metricDef{
	{Name: "throughput_rps", Unit: "1/s"},
	{Name: "latency_p50_us", Unit: "us"},
	{Name: "latency_p99_us", Unit: "us"},
}

// checkMetrics are values reported beside the end-to-end metrics but not
// bounded: the exact checks (sim_session_ms must match, failed_frac must be
// 0) and the generator's validity readings.
var checkMetrics = []metricDef{
	{Name: "sim_session_ms", Unit: "ms", Only: []string{wHello, wSeal, wPool}},
	{Name: "failed_frac", Unit: "frac"},
	{Name: "gen.late_p99_us", Unit: "us", Only: []string{wPool, wFabric}},
	{Name: "gen.achieved_frac", Unit: "frac", Only: []string{wPool, wFabric}},
}

var corePhases = []string{"accept", "init-slb", "suspend-os", "skinit", "pal-exec", "cleanup", "extend-pcr", "resume-os"}

// layerMetrics are the traced run's per-layer metrics.
var layerMetrics = func() []metricDef {
	defs := append(append([]metricDef(nil), loadMetrics...), metricDef{Name: "core.session_us", Unit: "us"})
	for _, ph := range corePhases {
		defs = append(defs, metricDef{Name: "core.phase." + ph + "_us", Unit: "us"})
	}
	open := []string{wPool, wFabric}
	fabric := []string{wFabric}
	return append(defs, []metricDef{
		{Name: "core.phase.request_us", Unit: "us", Only: fabric},
		{Name: "core.pal_body_us", Unit: "us"},
		{Name: "core.unattributed_frac", Unit: "frac"},
		{Name: "tpm.cmds_per_session", Unit: "count"},
		{Name: "tpm.extend_us", Unit: "us"},
		{Name: "tpm.pcrread_us", Unit: "us"},
		{Name: "tpm.getrandom_us", Unit: "us"},
		{Name: "tpm.seal_us", Unit: "us"},
		{Name: "tpm.unseal_us", Unit: "us"},
		{Name: "tis.submit_overhead_us", Unit: "us"},
		{Name: "palcrypto.rsa_encrypt_us", Unit: "us"},
		{Name: "palcrypto.rsa_decrypt_us", Unit: "us"},
		{Name: "palcrypto.sha1_4k_us", Unit: "us"},
		{Name: "cpu.skinit_hit_frac", Unit: "frac"},
		{Name: "cpu.skinit_per_req", Unit: "count"},
		{Name: "pool.overhead_us", Unit: "us", Only: []string{wPool}},
		{Name: "pool.queue_delay_p99_us", Unit: "us", Only: open},
		{Name: "pool.shard_busy_frac", Unit: "frac", Only: open},
		{Name: "pool.shard_skew", Unit: "ratio", Only: open},
		{Name: "sched.batch_size_mean", Unit: "count"},
		{Name: "sched.flush_timeout_frac", Unit: "frac", Only: fabric},
		{Name: "fabric.overhead_us", Unit: "us", Only: fabric},
		{Name: "fabric.frames_per_req", Unit: "count", Only: fabric},
		{Name: "fabric.window_waits_per_kreq", Unit: "count", Only: fabric},
		{Name: "fabric.resubmits", Unit: "count", Only: fabric},
		{Name: "netsim.bytes_per_req", Unit: "B", Only: fabric},
		{Name: "netsim.call_us", Unit: "us"},
		{Name: "attest.admit_ms", Unit: "ms", Only: fabric},
		{Name: "go.gc_cpu_frac", Unit: "frac"},
		{Name: "go.bytes_per_req", Unit: "B"},
		{Name: "gen.late_p99_us", Unit: "us", Only: open},
		{Name: "gen.achieved_frac", Unit: "frac", Only: open},
		{Name: "max_rate_rps", Unit: "1/s"},
		{Name: "trace.overhead_frac", Unit: "frac"},
	}...)
}()

func defByName(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{e2eMetrics, checkMetrics, layerMetrics} {
		for _, d := range set {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
