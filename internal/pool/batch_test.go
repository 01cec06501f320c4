package pool

import (
	"fmt"
	"testing"

	"flicker/internal/core"
)

// RunBatch amortizes one physical session over the whole request slice and
// produces replies — and a PCR-17 launch measurement — bit-identical to what
// singleton Runs of the same PAL would have produced.
func TestPoolRunBatch(t *testing.T) {
	hello := testPAL("hello")

	// Singleton baseline on a dedicated pool.
	single := newPool(t, 1, 4)
	res, err := single.Run(hello, core.SessionOptions{Input: []byte("r0")})
	if err != nil {
		t.Fatal(err)
	}
	wantPCR := fmt.Sprintf("%x", res.PCR17AtLaunch)

	p := newPool(t, 1, 4)
	reqs := [][]byte{[]byte("r0"), []byte("r1"), []byte("r2")}
	br, err := p.RunBatch(hello, reqs, core.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if br.Completed != 3 || len(br.Replies) != 3 {
		t.Fatalf("completed %d/%d replies", br.Completed, len(br.Replies))
	}
	for i, r := range br.Replies {
		if r.Err != nil {
			t.Fatalf("reply %d: %v", i, r.Err)
		}
		want := fmt.Sprintf("hello:r%d", i)
		if string(r.Output) != want {
			t.Fatalf("reply %d = %q, want %q", i, r.Output, want)
		}
	}
	// The launch measurement is the bit-identity anchor: same PAL, same
	// platform seed, same PCR-17 — batched or not.
	if got := fmt.Sprintf("%x", br.Session.PCR17AtLaunch); got != wantPCR {
		t.Fatalf("batch PCR17 = %s, singleton = %s", got, wantPCR)
	}
	// One physical session for the whole batch.
	if n := poolSessions(p); n != 1 {
		t.Fatalf("completed sessions = %d, want 1 for the whole batch", n)
	}

	if _, err := p.RunBatch(hello, nil, core.SessionOptions{}); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// RunBatch on a draining pool refuses cleanly with ErrClosed, like Run.
func TestPoolRunBatchAfterClose(t *testing.T) {
	p := newPool(t, 1, 4)
	p.Close()
	if _, err := p.RunBatch(testPAL("hello"), [][]byte{[]byte("x")}, core.SessionOptions{}); err == nil {
		t.Fatal("RunBatch on closed pool succeeded")
	}
}
