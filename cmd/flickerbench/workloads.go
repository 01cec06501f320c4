package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"time"

	"flicker"
)

// workload is one of the benchmark's four request mixes. Names are stable:
// later changes cite them.
type workload struct {
	name string
	// open selects the open loop (Poisson arrivals at rate) over the closed
	// loop (one client).
	open bool
	// rate is the open loop's fixed arrival rate in req/s and limit the p99
	// latency a ladder step must meet.
	rate  float64
	limit time.Duration
	reps  int
	gen   genSpec
	// simSessionMS is the mean simulated session time the PCR-17 probe must
	// read over its 1000 sessions; 0 for a workload without a probe. The
	// simulated clock is deterministic and does not depend on the seeded
	// inputs, so any change in it is a change to the modelled platform.
	simSessionMS float64
	// rssRequests is how many requests the peak-RSS child serves.
	rssRequests int
	setup       func(tr *tracer) (*system, error)
}

// system is one set-up instance of a workload's system under test.
type system struct {
	target
	regs []*flicker.MetricsRegistry
	// session runs one singleton session and returns its result, for the
	// PCR-17 probe; nil when the workload's API hides session results.
	session func(pal int, input []byte) (*flicker.SessionResult, error)
	want    func(pal int, input []byte) []byte
	// admitMS holds each Controller.Admit's wall time (fabric only).
	admitMS []float64
}

var workloads = []*workload{
	// Nearly all of classic_hello's time is the session engine's fixed cost
	// (phases, TPM Extend/PCRRead/GetRandom dispatch, TIS, the SKINIT
	// measure cache); it never touches the pool, sched, fabric, netsim or RSA.
	{
		name:         "classic_hello",
		reps:         8,
		gen:          genSpec{PALs: 1, MinLen: 16, MaxLen: 1024},
		simSessionMS: 20.544375,
		rssRequests:  20000,
		setup:        classicSetup(helloPAL(), func(int, []byte) []byte { return okReply }),
	},
	// classic_seal is the tpm layer's write side: RSA, AES and HMAC in
	// palcrypto dominate and the engine's fixed cost is under 2%, so an
	// engine gain should not move it and a crypto gain should.
	{
		name:         "classic_seal",
		reps:         8,
		gen:          genSpec{PALs: 1, MinLen: 16, MaxLen: 1024},
		simSessionMS: 935.84168,
		rssRequests:  1000,
		setup:        classicSetup(sealPAL(), func(_ int, in []byte) []byte { return in }),
	},
	// pool_spread isolates the pool's submit ring, wake and affinity routing
	// under arrival-driven concurrency, with no batching and no wire.
	{
		name:         "pool_spread",
		open:         true,
		rate:         8000,
		limit:        5 * time.Millisecond,
		reps:         3,
		gen:          genSpec{PALs: 8, MinLen: 16, MaxLen: 1024},
		simSessionMS: 20.56863,
		rssRequests:  16000,
		setup:        poolSetup,
	},
	// In fabric_mixed the hot PAL fills runBatch frames while the cold ones
	// time out as near-singleton frames, so a change that helps one side of
	// the coalescer, frame codec, netsim or pool.RunBatch and hurts the
	// other shows.
	{
		name:        "fabric_mixed",
		open:        true,
		rate:        16000,
		limit:       10 * time.Millisecond,
		reps:        3,
		gen:         genSpec{PALs: 8, HotFrac: 0.75, MinLen: idLen, MaxLen: idLen + 256},
		rssRequests: 32000,
		setup:       fabricSetup,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- PALs -------------------------------------------------------------------

var okReply = []byte("ok")

func helloPAL() *benchPAL {
	return newPAL("hello", func(*flicker.Env, []byte) ([]byte, error) { return okReply, nil })
}

func sealPAL() *benchPAL {
	return newPAL("seal", func(env *flicker.Env, in []byte) ([]byte, error) {
		blob, err := env.SealToSelf(in)
		if err != nil {
			return nil, err
		}
		return env.Unseal(blob)
	})
}

// echoIDPAL replies with the request id its input starts with, so a reply
// delivered to the wrong request is caught.
func echoIDPAL(name string) *benchPAL {
	return newPAL(name, func(_ *flicker.Env, in []byte) ([]byte, error) {
		if len(in) < idLen {
			return nil, errors.New("input shorter than a request id")
		}
		return in[:idLen], nil
	})
}

func echoWant(_ int, in []byte) []byte { return in[:idLen] }

// checkReply turns a session outcome into the request's verdict.
func checkReply(res *flicker.SessionResult, err error, want []byte) error {
	switch {
	case err != nil:
		return err
	case res.PALError != nil:
		return fmt.Errorf("PAL error: %w", res.PALError)
	case !bytes.Equal(res.Outputs, want):
		return wrongOutput(res.Outputs, want)
	}
	return nil
}

// wrongOutput describes a mismatched reply by its lengths and first
// differing byte; the bytes themselves stay out of messages, since a sealed
// workload's reply is unsealed data.
func wrongOutput(got, want []byte) error {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("wrong output: %d bytes, want %d, first difference at byte %d", len(got), len(want), i)
}

// warmInput is the input set-up uses to warm caches: a zero request id and
// 24 payload bytes.
var warmInput = make([]byte, idLen+24)

// --- classic ----------------------------------------------------------------

type classicTarget struct {
	p    *flicker.Platform
	pal  *benchPAL
	want func(int, []byte) []byte
	tr   *tracer
}

func (t *classicTarget) session(_ int, in []byte) (*flicker.SessionResult, error) {
	return t.p.RunSession(t.pal, flicker.SessionOptions{Input: in})
}

func (t *classicTarget) do(pal int, id uint64, in []byte) error {
	if !t.tr.active() {
		res, err := t.session(pal, in)
		return checkReply(res, err, t.want(pal, in))
	}
	start := t.tr.now()
	res, err := t.session(pal, in)
	t.tr.req(id, start, t.tr.now())
	return checkReply(res, err, t.want(pal, in))
}

func (t *classicTarget) close() {}

// classicSetup boots one platform (Broadcom profile) and warms its image
// and SKINIT measurement caches.
func classicSetup(pal *benchPAL, want func(int, []byte) []byte) func(*tracer) (*system, error) {
	return func(tr *tracer) (*system, error) {
		p, err := flicker.NewPlatform(flicker.Config{Seed: "flickerbench", Profile: flicker.ProfileBroadcom()})
		if err != nil {
			return nil, err
		}
		t := &classicTarget{p: p, pal: pal, want: want, tr: tr}
		if tr != nil {
			obs := tr.observer()
			p.AddObserver(obs)
			t.pal = pal.bound(tr, obs)
		}
		for i := 0; i < 32; i++ {
			res, err := t.session(0, warmInput)
			if err := checkReply(res, err, want(0, warmInput)); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return &system{target: t, regs: []*flicker.MetricsRegistry{p.Metrics}, session: t.session, want: want}, nil
	}
}

// --- pool -------------------------------------------------------------------

type poolTarget struct {
	pool *flicker.Pool
	pals []*benchPAL
	tr   *tracer
}

func (t *poolTarget) session(pal int, in []byte) (*flicker.SessionResult, error) {
	return t.pool.Run(t.pals[pal], flicker.SessionOptions{Input: in})
}

func (t *poolTarget) do(pal int, id uint64, in []byte) error {
	if !t.tr.active() {
		res, err := t.session(pal, in)
		return checkReply(res, err, echoWant(pal, in))
	}
	// The trace id carries the request id to the shard's observer, which
	// pairs the session with the PAL body that ran in it.
	start := t.tr.now()
	res, err := t.pool.Run(t.pals[pal], flicker.SessionOptions{Input: in, TraceID: strconv.FormatUint(id, 16)})
	t.tr.req(id, start, t.tr.now())
	return checkReply(res, err, echoWant(pal, in))
}

func (t *poolTarget) close() { t.pool.Close() }

// poolSetup boots a 2-shard pool (queue 64, coalescer off) serving 8 PALs
// and runs each PAL on it to warm its home shard.
func poolSetup(tr *tracer) (*system, error) {
	pool, err := flicker.NewPool(flicker.PoolConfig{
		Shards:   2,
		QueueLen: 64,
		MaxBatch: 1,
		Platform: flicker.Config{Seed: "flickerbench-pool", Profile: flicker.ProfileBroadcom()},
	})
	if err != nil {
		return nil, err
	}
	t := &poolTarget{pool: pool, tr: tr}
	if tr != nil {
		for i := 0; i < pool.Shards(); i++ {
			pool.Shard(i).AddObserver(tr.observer())
		}
	}
	for i := 0; i < 8; i++ {
		t.pals = append(t.pals, echoIDPAL(fmt.Sprintf("bench-spread-%d", i)).bound(tr, nil))
	}
	for k := 0; k < 8; k++ {
		for i := range t.pals {
			res, err := t.session(i, warmInput)
			if err := checkReply(res, err, echoWant(i, warmInput)); err != nil {
				pool.Close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return &system{target: t, regs: []*flicker.MetricsRegistry{pool.Metrics()}, session: t.session, want: echoWant}, nil
}

// --- fabric -----------------------------------------------------------------

type fabricTarget struct {
	ctrl  *flicker.FabricController
	hosts []*flicker.FabricHost
	names []string
	tr    *tracer
}

func (t *fabricTarget) do(pal int, id uint64, in []byte) error {
	var start int64
	traced := t.tr.active()
	if traced {
		start = t.tr.now()
	}
	out, err := t.ctrl.Run(t.names[pal], in)
	if traced {
		t.tr.req(id, start, t.tr.now())
	}
	switch {
	case err != nil:
		return err
	case !bytes.Equal(out, in[:idLen]):
		return fmt.Errorf("%s: %w", t.names[pal], wrongOutput(out, in[:idLen]))
	}
	return nil
}

func (t *fabricTarget) close() {
	t.ctrl.Close()
	for _, h := range t.hosts {
		h.Close()
	}
}

// fabricSetup builds the 2-host fabric: a Privacy CA, a batching controller
// (MaxBatch 8, MaxWait 1 ms, Window 4), and two hosts, each certified and
// admitted by a fresh-nonce quote; then it warms every PAL on the fleet.
// Every component reports into one registry.
func fabricSetup(tr *tracer) (*system, error) {
	reg := flicker.NewMetricsRegistry()
	sw := flicker.NewNetSwitch(0, 0)
	sw.Instrument(reg, "fabric")
	ca, err := flicker.NewPrivacyCA([]byte("flickerbench-fabric"), 0)
	if err != nil {
		return nil, err
	}
	ctrl, err := flicker.NewFabricController(sw, ca, flicker.FabricControllerConfig{
		Seed: "flickerbench", MaxBatch: 8, MaxWait: time.Millisecond, Window: 4, Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	t := &fabricTarget{ctrl: ctrl, tr: tr}
	pals := []*benchPAL{echoIDPAL("bench-hot")}
	for i := 1; i < 8; i++ {
		pals = append(pals, echoIDPAL(fmt.Sprintf("bench-cold-%d", i)))
	}
	for _, pl := range pals {
		t.names = append(t.names, pl.name)
		if err := ctrl.RegisterPAL(pl); err != nil {
			t.close()
			return nil, err
		}
	}
	sys := &system{target: t, regs: []*flicker.MetricsRegistry{reg}, want: echoWant}
	for h := 0; h < 2; h++ {
		name := fmt.Sprintf("host%d", h)
		host, err := flicker.NewFabricHost(sw, ca, flicker.FabricHostConfig{
			Name:     name,
			Platform: flicker.Config{Seed: "flickerbench|" + name, Profile: flicker.ProfileBroadcom(), Metrics: reg},
		})
		if err != nil {
			t.close()
			return nil, err
		}
		t.hosts = append(t.hosts, host)
		var obs *shardObserver
		if tr != nil {
			obs = tr.observer()
			host.Pool().Shard(0).AddObserver(obs)
		}
		for _, pl := range pals {
			// Each host gets its own instance, so a traced body reports to
			// the observer of the platform it ran on.
			if err := host.RegisterPAL(pl.bound(tr, obs)); err != nil {
				t.close()
				return nil, err
			}
		}
		start := time.Now()
		if err := ctrl.Admit(name); err != nil {
			t.close()
			return nil, err
		}
		sys.admitMS = append(sys.admitMS, float64(time.Since(start))/float64(time.Millisecond))
	}
	for k := 0; k < 4; k++ {
		for i := range t.names {
			if err := t.do(i, 0, warmInput); err != nil {
				t.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return sys, nil
}
