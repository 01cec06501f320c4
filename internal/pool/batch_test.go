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
	br := new(core.BatchResult)
	if err := p.RunBatch(br, hello, reqs, core.SessionOptions{}); err != nil {
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

	if err := p.RunBatch(br, hello, nil, core.SessionOptions{}); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// RunBatch on a draining pool refuses cleanly with ErrClosed, like Run.
func TestPoolRunBatchAfterClose(t *testing.T) {
	p := newPool(t, 1, 4)
	p.Close()
	if err := p.RunBatch(new(core.BatchResult), testPAL("hello"), [][]byte{[]byte("x")}, core.SessionOptions{}); err == nil {
		t.Fatal("RunBatch on closed pool succeeded")
	}
}

// batchSizeHist reads the pool's flicker_pool_batch_size histogram: how
// many groups it observed and their summed size.
func batchSizeHist(p *Pool) (count uint64, sum float64) {
	for _, f := range p.Metrics().Snapshot().Families {
		if f.Name == "flicker_pool_batch_size" {
			for _, s := range f.Series {
				count, sum = count+s.Count, sum+s.Sum
			}
		}
	}
	return count, sum
}

// A pre-formed RunBatch group is one observation of
// flicker_pool_batch_size at its real size, whether or not the pool
// coalesces. In a coalescing pool such a group flushes as a partition of
// its own, and must not also be recorded there as a singleton.
func TestPoolRunBatchObservedOncePerGroup(t *testing.T) {
	hello := testPAL("hello")
	for _, maxBatch := range []int{1, 4} {
		t.Run(fmt.Sprintf("MaxBatch=%d", maxBatch), func(t *testing.T) {
			p, err := New(Config{Shards: 1, QueueLen: 4, MaxBatch: maxBatch, Platform: core.PlatformConfig{Seed: "pool-test"}})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			sizes := []int{3, 1, 5}
			for _, n := range sizes {
				reqs := make([][]byte, n)
				for i := range reqs {
					reqs[i] = []byte{byte('a' + i)}
				}
				br := new(core.BatchResult)
				if err := p.RunBatch(br, hello, reqs, core.SessionOptions{}); err != nil || br.Completed != n {
					t.Fatalf("RunBatch of %d: %v", n, err)
				}
			}
			if count, sum := batchSizeHist(p); count != uint64(len(sizes)) || sum != 9 {
				t.Fatalf("flicker_pool_batch_size holds %d observations summing to %v; want %d summing to 9",
					count, sum, len(sizes))
			}
		})
	}
}
