package pool

// Shard-parity tests: per-shard platform stacks must change nothing the
// attestation protocol or the observability surface can see. A PAL's
// measurement chain is bit-identical on any shard and on a bare classic
// platform, and the per-shard metric cells fold into the same shared-
// registry totals the un-sharded instruments would have produced.

import (
	"fmt"
	"testing"

	"flicker/internal/core"
)

// TestShardPCR17BitIdentical: the same PAL yields the same Measurement,
// PCR17AtLaunch, and PCR17Final on a standalone classic platform and on
// every shard of a pool — shard seeds perturb the simulated hardware's
// identity, never the measured-launch chain.
func TestShardPCR17BitIdentical(t *testing.T) {
	classic, err := core.NewPlatform(core.PlatformConfig{Seed: "parity-classic"})
	if err != nil {
		t.Fatal(err)
	}
	hello := testPAL("parity")
	want, err := classic.RunSession(hello, core.SessionOptions{Input: []byte("x")})
	if err != nil || want.PALError != nil {
		t.Fatalf("classic session: %v %v", err, want.PALError)
	}

	p := newPool(t, 4, 4)
	for i := 0; i < p.Shards(); i++ {
		got, err := p.Shard(i).RunSession(hello, core.SessionOptions{Input: []byte("x")})
		if err != nil || got.PALError != nil {
			t.Fatalf("shard %d session: %v %v", i, err, got.PALError)
		}
		if got.Measurement != want.Measurement {
			t.Errorf("shard %d Measurement %x != classic %x", i, got.Measurement, want.Measurement)
		}
		if got.PCR17AtLaunch != want.PCR17AtLaunch {
			t.Errorf("shard %d PCR17AtLaunch %x != classic %x", i, got.PCR17AtLaunch, want.PCR17AtLaunch)
		}
		if got.PCR17Final != want.PCR17Final {
			t.Errorf("shard %d PCR17Final %x != classic %x", i, got.PCR17Final, want.PCR17Final)
		}
	}
	// And through the routed API: the verifier's independent computation
	// holds no matter which shard ran the session.
	res, err := p.Run(hello, core.SessionOptions{Input: []byte("x")})
	if err != nil || res.PALError != nil {
		t.Fatal(err, res)
	}
	if res.PCR17AtLaunch != res.Image.ExpectedPCR17() {
		t.Errorf("routed session PCR17AtLaunch %x != verifier's expected %x",
			res.PCR17AtLaunch, res.Image.ExpectedPCR17())
	}
}

// TestShardMetricFoldOnScrape: sessions spread over every shard write
// through per-shard cells (platform instruments and pool submit counters
// alike), and a registry scrape folds them into exactly the fleet totals —
// the /stats and Prometheus surfaces need no per-shard plumbing.
func TestShardMetricFoldOnScrape(t *testing.T) {
	p := newPool(t, 4, 8)
	counts := countShards(p)
	// Distinct PAL names until every shard has run at least one session.
	const sessions = 32
	for i := 0; i < sessions; i++ {
		if _, err := p.Run(testPAL(fmt.Sprintf("fold-%d", i)), core.SessionOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	busy := 0
	perShard := 0
	for _, c := range counts {
		if n := int(c.n.Load()); n > 0 {
			busy++
			perShard += n
		}
	}
	if busy != p.Shards() {
		t.Fatalf("only %d of %d shards ran sessions; fold not exercised fleet-wide", busy, p.Shards())
	}
	if perShard != sessions {
		t.Fatalf("per-shard session counts sum to %d sessions, want %d", perShard, sessions)
	}

	snap := p.Metrics().Snapshot()
	if got := snap.Sum("flicker_sessions_total"); int(got) != sessions {
		t.Errorf("flicker_sessions_total folds to %v, want %d (per-shard sum)", got, sessions)
	}
	if got := snap.Sum("flicker_pool_submissions_total"); int(got) != sessions {
		t.Errorf("flicker_pool_submissions_total folds to %v, want %d", got, sessions)
	}
	// Each session issues a fixed TPM command sequence per platform; the
	// folded fleet-wide dispatch count must be an exact multiple spread
	// over the same series labels a single platform would emit.
	tpmTotal := snap.Sum("flicker_tpm_commands_total")
	if tpmTotal == 0 || int(tpmTotal)%sessions != 0 {
		t.Errorf("flicker_tpm_commands_total folds to %v, want a per-session multiple of %d", tpmTotal, sessions)
	}
	// The queue-delay histogram's base handle reads must fold shard cells.
	if got := p.metQueueDelay.Count(); got != sessions {
		t.Errorf("queue-delay count folds to %d, want %d", got, sessions)
	}
}
