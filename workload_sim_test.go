package flicker_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"flicker"
)

// TestWorkloadSimSessionTime pins the mean simulated session time of the
// three benchmark workloads that run singleton sessions (classic_hello,
// classic_seal and pool_spread in cmd/flickerbench), exactly. It builds
// each workload's seeded platform or pool and PALs, runs the same warm-up,
// then averages SessionResult.Duration over sessions with a 16-byte and a
// 1024-byte input, the ends of the workloads' input range. The simulated
// clock is deterministic, so any change here is a change to the modelled
// platform; cmd/flickerbench checks the same values over its 1000-session
// probe.
func TestWorkloadSimSessionTime(t *testing.T) {
	newPAL := func(name string, fn func(*flicker.Env, []byte) ([]byte, error)) *flicker.PALFunc {
		return &flicker.PALFunc{PALName: name, Binary: flicker.DescriptorCode(name, "1.0", nil, nil), Fn: fn}
	}
	hello := newPAL("hello", func(*flicker.Env, []byte) ([]byte, error) { return []byte("ok"), nil })
	seal := newPAL("seal", func(env *flicker.Env, in []byte) ([]byte, error) {
		blob, err := env.SealToSelf(in)
		if err != nil {
			return nil, err
		}
		return env.Unseal(blob)
	})
	echoID := func(name string) flicker.PAL {
		return newPAL(name, func(_ *flicker.Env, in []byte) ([]byte, error) {
			if len(in) < 8 {
				return nil, errors.New("input shorter than a request id")
			}
			return in[:8], nil
		})
	}
	warm := make([]byte, 32) // a zero request id and 24 payload bytes

	// session runs one session of PAL i and fails the test on any error.
	type session func(i int, in []byte) *flicker.SessionResult
	classic := func(p flicker.PAL) session {
		plat, err := flicker.NewPlatform(flicker.Config{Seed: "flickerbench", Profile: flicker.ProfileBroadcom()})
		if err != nil {
			t.Fatal(err)
		}
		return func(_ int, in []byte) *flicker.SessionResult {
			res, err := plat.RunSession(p, flicker.SessionOptions{Input: in})
			if err == nil && res.PALError != nil {
				err = res.PALError
			}
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			return res
		}
	}
	spread := func() session {
		p, err := flicker.NewPool(flicker.PoolConfig{
			Shards:   2,
			QueueLen: 64,
			MaxBatch: 1,
			Platform: flicker.Config{Seed: "flickerbench-pool", Profile: flicker.ProfileBroadcom()},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		var pals []flicker.PAL
		for i := 0; i < 8; i++ {
			pals = append(pals, echoID(fmt.Sprintf("bench-spread-%d", i)))
		}
		return func(i int, in []byte) *flicker.SessionResult {
			res, err := p.Run(pals[i], flicker.SessionOptions{Input: in})
			if err == nil && res.PALError != nil {
				err = res.PALError
			}
			if err != nil {
				t.Fatalf("%s: %v", pals[i].Name(), err)
			}
			return res
		}
	}

	for _, w := range []struct {
		name   string
		run    session
		pals   int
		rounds int // warm-up rounds of one session per PAL
		want   float64
	}{
		{"classic_hello", classic(hello), 1, 32, 20.544375},
		{"classic_seal", classic(seal), 1, 32, 935.84168},
		{"pool_spread", spread(), 8, 8, 20.56863},
	} {
		for k := 0; k < w.rounds; k++ {
			for i := 0; i < w.pals; i++ {
				w.run(i, warm)
			}
		}
		var sim time.Duration
		n := 0
		for i := 0; i < w.pals; i++ {
			for _, size := range []int{16, 1024} {
				sim += w.run(i, make([]byte, size)).Duration()
				n++
			}
		}
		if got := float64(sim) / float64(n) / float64(time.Millisecond); got != w.want {
			t.Errorf("%s: mean simulated session = %v ms, want %v", w.name, got, w.want)
		}
	}
}
