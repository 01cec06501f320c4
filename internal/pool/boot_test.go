package pool

// Concurrent shard boot: New builds its shards' platforms side by side, and
// none of that may show. The shared registry exposes the same families and
// series in the same order as a one-at-a-time boot, each shard is the
// platform its seed names, and a failed boot reports the lowest-index
// shard's error.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"flicker/internal/core"
)

// bootExposition builds a 4-shard pool with the given platform constructor
// and returns its registry's Prometheus exposition right after boot.
func bootExposition(t *testing.T, newPlatform func(core.PlatformConfig) (*core.Platform, error)) []byte {
	t.Helper()
	p, err := build(Config{Shards: 4, Platform: core.PlatformConfig{Seed: "boot-test"}}, newPlatform)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var buf bytes.Buffer
	if err := p.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPoolConcurrentBootExposition: every shard registers the same families
// and series in the same order, so however the boots interleave, the
// exposition after boot is the one a serial boot gives.
func TestPoolConcurrentBootExposition(t *testing.T) {
	var one sync.Mutex
	serial := bootExposition(t, func(cfg core.PlatformConfig) (*core.Platform, error) {
		one.Lock()
		defer one.Unlock()
		return core.NewPlatform(cfg)
	})
	for i := 0; i < 8; i++ {
		if got := bootExposition(t, core.NewPlatform); !bytes.Equal(got, serial) {
			t.Fatalf("build %d: exposition after concurrent boot differs from a serial boot's:\n%s\nwant:\n%s",
				i, got, serial)
		}
	}
}

// TestPoolShardIsItsSeedsPlatform: shard i of a pool seeded s is the
// platform a standalone boot seeded s-shard<i> gives: the same SRK modulus,
// and the same PCR 17 at the end of the same session.
func TestPoolShardIsItsSeedsPlatform(t *testing.T) {
	p := newPool(t, 4, 4)
	hello := testPAL("boot")
	opts := core.SessionOptions{Input: []byte("x")}
	for i := 0; i < p.Shards(); i++ {
		alone, err := core.NewPlatform(core.PlatformConfig{Seed: fmt.Sprintf("pool-test-shard%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		shard := p.Shard(i)
		if got, want := shard.TPM.SRKPublic().N, alone.TPM.SRKPublic().N; got.Cmp(want) != 0 {
			t.Errorf("shard %d SRK modulus %x, want the standalone platform's %x", i, got, want)
		}
		got, err := shard.RunSession(hello, opts)
		if err != nil || got.PALError != nil {
			t.Fatalf("shard %d session: %v %v", i, err, got.PALError)
		}
		want, err := alone.RunSession(hello, opts)
		if err != nil || want.PALError != nil {
			t.Fatalf("standalone session %d: %v %v", i, err, want.PALError)
		}
		if got.PCR17Final != want.PCR17Final {
			t.Errorf("shard %d PCR17Final %x, want the standalone platform's %x", i, got.PCR17Final, want.PCR17Final)
		}
	}
}

// TestPoolBootReportsLowestShardError: when shards 1 and 3 fail, New
// reports shard 1's error, even though shard 3 fails first.
func TestPoolBootReportsLowestShardError(t *testing.T) {
	errShard1 := errors.New("shard 1 boot failed")
	errShard3 := errors.New("shard 3 boot failed")
	_, err := build(Config{Shards: 4, Platform: core.PlatformConfig{Seed: "boot-fail"}},
		func(cfg core.PlatformConfig) (*core.Platform, error) {
			switch cfg.Seed {
			case "boot-fail-shard1":
				time.Sleep(20 * time.Millisecond)
				return nil, errShard1
			case "boot-fail-shard3":
				return nil, errShard3
			}
			return core.NewPlatform(cfg)
		})
	if !errors.Is(err, errShard1) {
		t.Fatalf("New = %v, want shard 1's error", err)
	}
	if !strings.HasPrefix(err.Error(), "pool: shard 1: ") {
		t.Errorf("New = %q, want it to name shard 1", err)
	}
}
