package pool

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"flicker/internal/attest"
	"flicker/internal/core"
	"flicker/internal/pal"
	"flicker/internal/simtime"
	"flicker/internal/slb"
)

// TestFreshResultOwnsOutput checks every path that hands out a fresh
// session result: the platform's classic and partitioned sessions, a
// non-coalescing pool, and a coalescing pool whose four lockstep callers
// share batched sessions. An echo PAL replies with its input read-back,
// which is session scratch, at every output size that matters: empty, one
// byte, each side of every boundary between core's output classes (each
// fills a Go size class with the result; TestFreshResultClasses), and the
// full output page. Each result must be exactly one allocation
// (through a pool under -race, where sync.Pool drops a quarter of the job
// records put back, at most three; lockstep rounds read 2.25-2.50), hold
// the reply byte for byte, keep it through three more sessions on the same
// platform or shard, and carry a PCR 17 a verifier recomputes from the
// Outputs it holds.
func TestFreshResultOwnsOutput(t *testing.T) {
	echo := &pal.Func{
		PALName: "echo",
		Binary:  pal.DescriptorCode("echo", "1.0", nil, nil),
		Fn:      func(_ *pal.Env, in []byte) ([]byte, error) { return in, nil },
	}
	sizes := []int{0, 1}
	for _, class := range []int{32, 216, 408, 536, 664, 792, 1048} {
		sizes = append(sizes, class-1, class, class+1)
	}
	sizes = append(sizes, slb.PageSize-4)

	classic, err := core.NewPlatform(core.PlatformConfig{Seed: "pool-test"})
	if err != nil {
		t.Fatal(err)
	}
	future, err := core.NewPlatform(core.PlatformConfig{Seed: "pool-test", Profile: simtime.ProfileFuture()})
	if err != nil {
		t.Fatal(err)
	}
	single := newPool(t, 1, 4)
	coal, err := New(Config{Shards: 1, QueueLen: 8, MaxBatch: 4, MaxWait: time.Second, Platform: core.PlatformConfig{Seed: "pool-test"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coal.Close() })
	group := newLockstep(t, coal, echo, 4)

	for _, m := range []struct {
		name  string
		pool  *Pool // nil: the platform's own path
		width int   // results per call
		call  func(in []byte, out []*core.SessionResult) error
	}{
		{"RunSession", nil, 1, func(in []byte, out []*core.SessionResult) (err error) {
			out[0], err = classic.RunSession(echo, core.SessionOptions{Input: in})
			return err
		}},
		{"RunSessionConcurrent", nil, 1, func(in []byte, out []*core.SessionResult) (err error) {
			out[0], err = future.RunSessionConcurrent(echo, core.SessionOptions{Input: in})
			return err
		}},
		{"Pool.Run", single, 1, func(in []byte, out []*core.SessionResult) (err error) {
			out[0], err = single.Run(echo, core.SessionOptions{Input: in})
			return err
		}},
		{"coalesced", coal, 4, group.round},
	} {
		t.Run(m.name, func(t *testing.T) {
			budget := 1.0
			if raceEnabled && m.pool != nil {
				budget = 3
			}
			out := make([]*core.SessionResult, m.width)
			call := func(in []byte) []*core.SessionResult {
				t.Helper()
				if err := m.call(in, out); err != nil {
					t.Fatalf("%d bytes: %v", len(in), err)
				}
				for _, res := range out {
					if res.PALError != nil {
						t.Fatalf("%d bytes: %v", len(in), res.PALError)
					}
				}
				return append([]*core.SessionResult(nil), out...)
			}
			for _, n := range sizes {
				in := bytes.Repeat([]byte{byte(n)}, n)
				call(in)
				allocs := testing.AllocsPerRun(20, func() {
					if err := m.call(in, out); err != nil {
						t.Fatal(err)
					}
				}) / float64(m.width)
				if allocs > budget || allocs < 1 {
					t.Errorf("%d-byte output: %.2f allocations per result, want %v", n, allocs, budget)
				}
				first := call(in)
				for k := range 3 {
					call(bytes.Repeat([]byte{0xF0 + byte(k)}, n))
				}
				for _, res := range first {
					if !bytes.Equal(res.Outputs, in) {
						t.Errorf("%d-byte output not intact after three more sessions", n)
					}
					if !attestsOutputs(res, in, m.width > 1) {
						t.Errorf("%d-byte output: PCR17Final is not the chain over the returned Outputs", n)
					}
				}
			}
			if m.width > 1 && m.pool.Metrics().Snapshot().Sum("flicker_sessions_total", "classic-batch") == 0 {
				t.Error("the coalescing pool ran no batched session")
			}
		})
	}
}

// attestsOutputs reports whether res's PCR 17 is the chain a verifier
// recomputes from the input it sent and the Outputs it got back: over the
// two directly for a session of its own, or, when grouped, over the input
// and output frames of a batch of k members that all sent in (the
// lockstep callers send the same input, so member order does not matter).
func attestsOutputs(res *core.SessionResult, in []byte, grouped bool) bool {
	if res.PCR17Final == attest.ExpectedFinalPCR17(res.Image, in, res.Outputs, nil) {
		return true
	}
	for k := 2; grouped && k <= 4; k++ {
		inFrame := binary.BigEndian.AppendUint32(nil, 0)
		inFrame = binary.BigEndian.AppendUint32(inFrame, uint32(k))
		outFrame := binary.BigEndian.AppendUint32(nil, uint32(k))
		for range k {
			inFrame = append(binary.BigEndian.AppendUint32(inFrame, uint32(len(in))), in...)
			outFrame = append(binary.BigEndian.AppendUint32(append(outFrame, 0), uint32(len(res.Outputs))), res.Outputs...)
		}
		outFrame = binary.BigEndian.AppendUint32(outFrame, 0)
		if res.PCR17Final == attest.ExpectedFinalPCR17(res.Image, inFrame, outFrame, nil) {
			return true
		}
	}
	return false
}

// lockstep drives a pool from persistent callers, one Run each per round,
// so a coalescing pool batches each round; it allocates nothing of its own.
type lockstep struct {
	start []chan []byte
	done  chan lockstepReply
}

type lockstepReply struct {
	caller int
	res    *core.SessionResult
	err    error
}

func newLockstep(t *testing.T, p *Pool, pl pal.PAL, callers int) *lockstep {
	l := &lockstep{done: make(chan lockstepReply, callers)}
	for c := range callers {
		ch := make(chan []byte)
		l.start = append(l.start, ch)
		go func() {
			for in := range ch {
				res, err := p.Run(pl, core.SessionOptions{Input: in})
				l.done <- lockstepReply{c, res, err}
			}
		}()
	}
	t.Cleanup(func() {
		for _, ch := range l.start {
			close(ch)
		}
	})
	return l
}

// round sends in to every caller and collects their results in out.
func (l *lockstep) round(in []byte, out []*core.SessionResult) error {
	for _, ch := range l.start {
		ch <- in
	}
	var err error
	for range l.start {
		r := <-l.done
		out[r.caller] = r.res
		if r.err != nil {
			err = r.err
		}
	}
	return err
}

// TestPoolRunIntoRunsAlone checks that a job carrying its caller's result
// never joins a coalesced group: beside a lockstep group that coalesces,
// it runs as a classic session of its own, into the caller's storage.
func TestPoolRunIntoRunsAlone(t *testing.T) {
	echo := &pal.Func{
		PALName: "echo",
		Binary:  pal.DescriptorCode("echo", "1.0", nil, nil),
		Fn:      func(_ *pal.Env, in []byte) ([]byte, error) { return in, nil },
	}
	p, err := New(Config{Shards: 1, QueueLen: 8, MaxBatch: 4, MaxWait: time.Second, Platform: core.PlatformConfig{Seed: "pool-test"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	group := newLockstep(t, p, echo, 3)
	var res core.SessionResult
	into := make(chan error, 1)
	go func() { into <- p.RunInto(&res, echo, core.SessionOptions{Input: []byte("mine")}) }()
	out := make([]*core.SessionResult, 3)
	if err := group.round([]byte("group"), out); err != nil {
		t.Fatal(err)
	}
	if err := <-into; err != nil || res.PALError != nil {
		t.Fatal(err, res.PALError)
	}
	if res.Pipeline != "classic" || string(res.Outputs) != "mine" {
		t.Errorf("RunInto result: pipeline %q, outputs %q; want a classic session of its own echoing %q", res.Pipeline, res.Outputs, "mine")
	}
	if out[0].Pipeline != "classic-batch" {
		t.Errorf("the lockstep group ran %q sessions, want classic-batch", out[0].Pipeline)
	}
}
