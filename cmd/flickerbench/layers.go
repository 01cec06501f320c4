package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"flicker"
	"flicker/internal/hw/tis"
	"flicker/internal/netsim"
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
	"flicker/internal/tpm"
)

// --- process and Go runtime counters ----------------------------------------

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goSample reads the runtime's cumulative GC CPU, total CPU and allocated
// bytes.
type goSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readGo() goSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return goSample{val(0), val(1), val(2)}
}

func (g goSample) minus(b goSample) goSample {
	return goSample{g.gcCPU - b.gcCPU, g.totalCPU - b.totalCPU, g.allocBytes - b.allocBytes}
}

// --- registry deltas --------------------------------------------------------

// layerCounters are the program's own counters the per-layer metrics read,
// summed over every registry of the system under test.
type layerCounters struct {
	sessions, tpmCmds, skinits, skinitHits float64
	flushes, timeoutFlushes                float64
	roundTrips, netBytes                   float64
	windowWaits, resubmits                 float64
	queueDelay                             histogram
}

func readCounters(regs []*flicker.MetricsRegistry) layerCounters {
	snaps := snapRegistries(regs...)
	return layerCounters{
		sessions:       counterSum(snaps, "flicker_sessions_total", "result", "ok"),
		tpmCmds:        counterSum(snaps, "flicker_tpm_commands_total"),
		skinits:        counterSum(snaps, "flicker_skinit_attempts_total", "result", "ok"),
		skinitHits:     counterSum(snaps, "flicker_skinit_measure_cache_total", "result", "hit"),
		flushes:        counterSum(snaps, "flicker_fabric_batch_flush_total"),
		timeoutFlushes: counterSum(snaps, "flicker_fabric_batch_flush_total", "reason", "timeout"),
		roundTrips:     counterSum(snaps, "flicker_net_roundtrips_total"),
		netBytes:       counterSum(snaps, "flicker_net_bytes_total"),
		windowWaits:    counterSum(snaps, "flicker_fabric_window_waits_total"),
		resubmits:      counterSum(snaps, "flicker_fabric_resubmits_total"),
		queueDelay:     histSum(snaps, "flicker_pool_queue_delay_seconds"),
	}
}

// minus is c - b, counter by counter.
func (c layerCounters) minus(b layerCounters) layerCounters {
	return layerCounters{
		sessions:       c.sessions - b.sessions,
		tpmCmds:        c.tpmCmds - b.tpmCmds,
		skinits:        c.skinits - b.skinits,
		skinitHits:     c.skinitHits - b.skinitHits,
		flushes:        c.flushes - b.flushes,
		timeoutFlushes: c.timeoutFlushes - b.timeoutFlushes,
		roundTrips:     c.roundTrips - b.roundTrips,
		netBytes:       c.netBytes - b.netBytes,
		windowWaits:    c.windowWaits - b.windowWaits,
		resubmits:      c.resubmits - b.resubmits,
		queueDelay:     c.queueDelay.minus(b.queueDelay),
	}
}

func snapRegistries(regs ...*flicker.MetricsRegistry) []flicker.MetricsSnapshot {
	out := make([]flicker.MetricsSnapshot, 0, len(regs))
	for _, r := range regs {
		out = append(out, r.Snapshot())
	}
	return out
}

// counterSum sums a counter family's series whose labels include every
// pair in match, across snapshots.
func counterSum(snaps []flicker.MetricsSnapshot, family string, match ...string) float64 {
	total := 0.0
	for _, sn := range snaps {
		for _, f := range sn.Families {
			if f.Name != family {
				continue
			}
		series:
			for _, s := range f.Series {
				for i := 0; i+1 < len(match); i += 2 {
					if s.Labels[match[i]] != match[i+1] {
						continue series
					}
				}
				total += s.Value
			}
		}
	}
	return total
}

// histogram folds a histogram family's series across snapshots.
type histogram struct {
	count   uint64
	sum     float64
	bounds  []float64
	buckets []uint64 // cumulative
}

func histSum(snaps []flicker.MetricsSnapshot, family string) histogram {
	var h histogram
	for _, sn := range snaps {
		for _, f := range sn.Families {
			if f.Name != family {
				continue
			}
			for _, s := range f.Series {
				h.count += s.Count
				h.sum += s.Sum
				if h.bounds == nil {
					h.bounds = s.Bounds
					h.buckets = make([]uint64, len(s.Buckets))
				}
				for i := range s.Buckets {
					if i < len(h.buckets) {
						h.buckets[i] += s.Buckets[i]
					}
				}
			}
		}
	}
	return h
}

// minus is h - base, bucket by bucket.
func (h histogram) minus(base histogram) histogram {
	out := histogram{count: h.count - base.count, sum: h.sum - base.sum, bounds: h.bounds}
	out.buckets = make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out.buckets[i] = h.buckets[i]
		if i < len(base.buckets) {
			out.buckets[i] -= base.buckets[i]
		}
	}
	return out
}

// quantileBound is the upper bound of the bucket holding quantile q (the
// histogram's resolution is its buckets), or the last bound when q falls in
// the overflow bucket.
func (h histogram) quantileBound(q float64) float64 {
	if h.count == 0 || len(h.bounds) == 0 {
		return 0
	}
	want := uint64(q*float64(h.count) + 0.5)
	for i, c := range h.buckets {
		if c >= want {
			return h.bounds[i]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// --- microbenchmarks --------------------------------------------------------

// timeOp runs op in batches until budget is spent and returns the median of
// the per-batch mean op times in microseconds.
func timeOp(budget time.Duration, batch int, op func() error) (float64, error) {
	var means []float64
	end := time.Now().Add(budget)
	for len(means) < 3 || time.Now().Before(end) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		means = append(means, float64(time.Since(t0))/float64(batch)/1e3)
	}
	sort.Float64s(means)
	return means[len(means)/2], nil
}

// layerOp is one microbenchmarked operation, timed in batches of batch.
type layerOp struct {
	name  string
	batch int
	op    func() error
}

// microbench times single-layer operations directly, each on its own: TPM
// commands through the OS's TPM driver, the TIS bus's share of a submit, the
// PAL crypto library, and one netsim call. Each gets budget.
func microbench(budget time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	p, err := flicker.NewPlatform(flicker.Config{Seed: "flickerbench-layers", Profile: flicker.ProfileBroadcom()})
	if err != nil {
		return nil, err
	}
	c := p.OSTPM()
	var dig tpm.Digest
	data := make([]byte, 512)
	// Sealed to PCR 11, which nothing here extends, so every Unseal passes.
	sel := tpm.SelectPCRs(11)
	pcr11, err := c.PCRRead(11)
	if err != nil {
		return nil, err
	}
	dar := tpm.CompositeHash(sel, map[int]tpm.Digest{11: pcr11})
	blob, err := c.Seal(tpm.Digest{}, sel, dar, data)
	if err != nil {
		return nil, err
	}
	ops := []layerOp{
		{"tpm.extend_us", 64, func() error { _, err := c.Extend(10, dig); return err }},
		{"tpm.pcrread_us", 64, func() error { _, err := c.PCRRead(10); return err }},
		{"tpm.getrandom_us", 64, func() error { _, err := c.GetRandom(20); return err }},
		{"tpm.seal_us", 4, func() error { _, err := c.Seal(tpm.Digest{}, sel, dar, data); return err }},
		{"tpm.unseal_us", 4, func() error {
			plain, err := c.Unseal(tpm.Digest{}, blob)
			clear(plain)
			return err
		}},
	}

	key, err := palcrypto.GenerateRSAKey(palcrypto.NewPRNG([]byte("flickerbench-rsa")), 512)
	if err != nil {
		return nil, err
	}
	rng := palcrypto.NewPRNG([]byte("flickerbench-pad"))
	msg := make([]byte, 32)
	ct, err := palcrypto.EncryptPKCS1(rng, &key.RSAPublicKey, msg)
	if err != nil {
		return nil, err
	}
	page := make([]byte, 4096)
	ops = append(ops, []layerOp{
		{"palcrypto.rsa_encrypt_us", 16, func() error { _, err := palcrypto.EncryptPKCS1(rng, &key.RSAPublicKey, msg); return err }},
		{"palcrypto.rsa_decrypt_us", 16, func() error {
			plain, err := palcrypto.DecryptPKCS1(key, ct)
			clear(plain)
			return err
		}},
		{"palcrypto.sha1_4k_us", 64, func() error { dig = palcrypto.SHA1Sum(page); return nil }},
	}...)

	sw := netsim.NewSwitch(simtime.New(), 0, 0)
	if _, err := sw.Attach("echo", func(req []byte) []byte { return req }); err != nil {
		return nil, err
	}
	port, err := sw.Attach("caller", nil)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 512)
	reply := make([]byte, 0, 512)
	ops = append(ops, layerOp{"netsim.call_us", 64, func() error {
		var err error
		reply, err = port.CallAppend("echo", frame, reply)
		return err
	}})

	for _, o := range ops {
		v, err := timeOp(budget, o.batch, o.op)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.name, err)
		}
		out[o.name] = v
	}
	ov, err := tisOverhead(p, budget)
	if err != nil {
		return nil, err
	}
	out["tis.submit_overhead_us"] = ov
	return out, nil
}

// tisOverhead is what the TIS bus adds to a TPM command: Bus.Submit minus
// TPM.HandleCommand on the same pre-encoded PCRRead, measured in alternating
// batches so drift cancels, as the median of the per-round differences.
func tisOverhead(p *flicker.Platform, budget time.Duration) (float64, error) {
	// TPM_PCRRead of PCR 10: tag TPM_TAG_RQU_COMMAND, size 14, ordinal.
	cmd := []byte{0x00, 0xC1, 0, 0, 0, 14, 0, 0, 0, byte(tpm.OrdPCRRead), 0, 0, 0, 10}
	if err := p.Bus.RequestUse(tis.Locality0); err != nil {
		return 0, err
	}
	defer p.Bus.Release(tis.Locality0)
	const batch = 64
	var diffs []float64
	end := time.Now().Add(budget)
	for len(diffs) < 3 || time.Now().Before(end) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := p.Bus.Submit(tis.Locality0, cmd); err != nil {
				return 0, err
			}
		}
		t1 := time.Now()
		for i := 0; i < batch; i++ {
			p.TPM.HandleCommand(tis.Locality0, cmd)
		}
		t2 := time.Now()
		diffs = append(diffs, (float64(t1.Sub(t0))-float64(t2.Sub(t1)))/batch/1e3)
	}
	sort.Float64s(diffs)
	return diffs[len(diffs)/2], nil
}
