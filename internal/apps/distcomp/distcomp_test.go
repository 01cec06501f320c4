package distcomp

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"flicker/internal/attest"
	"flicker/internal/core"
	"flicker/internal/palcrypto"
	"flicker/internal/simtime"
	"flicker/internal/tpm"
)

func newClient(t *testing.T, seed string) (*Client, *attest.PrivacyCA) {
	t.Helper()
	p, err := core.NewPlatform(core.PlatformConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ca, err := attest.NewPrivacyCA([]byte("dc-ca"), 0)
	if err != nil {
		t.Fatal(err)
	}
	tqd, err := attest.NewDaemon(p.OSTPM(), tpm.Digest{}, ca, "worker-1")
	if err != nil {
		t.Fatal(err)
	}
	return &Client{P: p, TQD: tqd, Slice: 200 * time.Millisecond}, ca
}

func TestStateCodecRoundTrip(t *testing.T) {
	f := func(id, n, next, hi uint64, found []uint64) bool {
		s := &State{UnitID: id, N: n, Next: next, Hi: hi, Found: found}
		got, err := DecodeState(s.Encode())
		if err != nil {
			return false
		}
		if len(found) == 0 && len(got.Found) == 0 {
			got.Found, s.Found = nil, nil
		}
		return reflect.DeepEqual(s, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeState([]byte("junk")); err == nil {
		t.Fatal("junk state accepted")
	}
}

func TestEnvelopeMAC(t *testing.T) {
	key := []byte("0123456789abcdef0123")
	s := &State{UnitID: 1, N: 91, Next: 2, Hi: 10}
	env := Wrap(key, s)
	got, err := Open(key, env)
	if err != nil || got.N != 91 {
		t.Fatalf("open: %v", err)
	}
	// Tampered state: rejected.
	bad := *env
	bad.State = append([]byte(nil), env.State...)
	bad.State[len(bad.State)-1] ^= 1
	if _, err := Open(key, &bad); err == nil {
		t.Fatal("tampered state accepted")
	}
	// Wrong key: rejected.
	if _, err := Open([]byte("wrong-key-wrong-key-"), env); err == nil {
		t.Fatal("wrong key accepted")
	}
	// Envelope transport round trip.
	dec, err := DecodeEnvelope(env.EncodeEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(key, dec); err != nil {
		t.Fatal("round-tripped envelope failed MAC")
	}
}

func TestRequestResponseCodec(t *testing.T) {
	req := &Request{
		Init:       false,
		Unit:       State{UnitID: 7, N: 1234, Next: 2, Hi: 100},
		SealedKey:  []byte("sealed-key-blob"),
		Envelope:   []byte("envelope-bytes"),
		WorkBudget: 1500 * time.Millisecond,
	}
	got, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.WorkBudget != req.WorkBudget || string(got.SealedKey) != string(req.SealedKey) ||
		got.Unit.N != 1234 {
		t.Fatalf("request round trip: %+v", got)
	}
	resp := &Response{SealedKey: []byte("k"), Envelope: []byte("e"), Done: true}
	rgot, err := DecodeResponse(EncodeResponse(resp))
	if err != nil || !rgot.Done || string(rgot.SealedKey) != "k" {
		t.Fatalf("response round trip: %+v %v", rgot, err)
	}
	if _, err := DecodeRequest(nil); err == nil {
		t.Fatal("nil request accepted")
	}
	if _, err := DecodeResponse(nil); err == nil {
		t.Fatal("nil response accepted")
	}
}

func TestFactorUnitEndToEnd(t *testing.T) {
	c, ca := newClient(t, "dc-e2e")
	// 91 = 7 * 13; candidate range covers both.
	srv := NewServer(91, 20, 20, ca.PublicKey())
	unit, nonce, ok := srv.NextUnit()
	if !ok {
		t.Fatal("no unit")
	}
	res, err := c.ProcessUnit(unit, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions < 2 {
		t.Fatalf("unit finished in %d sessions; want init + work", res.Sessions)
	}
	if err := srv.Submit(res); err != nil {
		t.Fatal(err)
	}
	if got := srv.Divisors(); !reflect.DeepEqual(got, []uint64{7, 13}) {
		t.Fatalf("divisors = %v, want [7 13]", got)
	}
	acc, rej := srv.Stats()
	if acc != 1 || rej != 0 {
		t.Fatalf("stats = %d/%d", acc, rej)
	}
}

func TestMultiSessionStateChaining(t *testing.T) {
	c, ca := newClient(t, "dc-chain")
	c.Slice = 50 * time.Millisecond // 10k candidates per session
	srv := NewServer(1_000_003*2, 45_000, 45_000, ca.PublicKey())
	unit, nonce, _ := srv.NextUnit()
	res, err := c.ProcessUnit(unit, nonce)
	if err != nil {
		t.Fatal(err)
	}
	// 45k candidates at 10k/session: init + 5 work sessions.
	if res.Sessions != 6 {
		t.Fatalf("sessions = %d, want 6", res.Sessions)
	}
	if err := srv.Submit(res); err != nil {
		t.Fatal(err)
	}
	if got := srv.Divisors(); !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("divisors = %v", got)
	}
}

func TestTamperedResultRejected(t *testing.T) {
	c, ca := newClient(t, "dc-tamper")
	srv := NewServer(143, 20, 20, ca.PublicKey()) // 11 * 13
	unit, nonce, _ := srv.NextUnit()
	res, err := c.ProcessUnit(unit, nonce)
	if err != nil {
		t.Fatal(err)
	}
	// A malicious host rewrites the final output (claiming no divisors).
	resp, _ := DecodeResponse(res.LastOutput)
	st := &State{UnitID: unit.UnitID, N: unit.N, Next: unit.Hi, Hi: unit.Hi}
	fake := Wrap([]byte("attacker-key-material"), st)
	resp.Envelope = fake.EncodeEnvelope()
	res.LastOutput = EncodeResponse(resp)
	if err := srv.Submit(res); err == nil {
		t.Fatal("tampered result accepted")
	}
	_, rej := srv.Stats()
	if rej != 1 {
		t.Fatalf("rejected = %d", rej)
	}
}

func TestStaleNonceRejected(t *testing.T) {
	c, ca := newClient(t, "dc-stale")
	srv := NewServer(143, 40, 20, ca.PublicKey())
	unitA, nonceA, _ := srv.NextUnit()
	unitB, _, _ := srv.NextUnit()
	resA, err := c.ProcessUnit(unitA, nonceA)
	if err != nil {
		t.Fatal(err)
	}
	// Replay unit A's attestation for unit B.
	resA.UnitID = unitB.UnitID
	if err := srv.Submit(resA); err == nil {
		t.Fatal("cross-unit replay accepted")
	}
}

func TestTable4OverheadShape(t *testing.T) {
	// Table 4: with ~912 ms fixed overhead (SKINIT 14.3 + Unseal 898.3),
	// overhead fraction is ~47/30/18/10 % at 1/2/4/8 s of app work.
	c, _ := newClient(t, "dc-t4")
	overhead := SessionOverhead(c.P)
	ohMs := simtime.Millis(overhead)
	if ohMs < 905 || ohMs < 900 || ohMs > 925 {
		t.Fatalf("fixed overhead = %.1f ms, want ~912.6", ohMs)
	}
	for _, tc := range []struct {
		work time.Duration
		want float64 // paper's overhead percentage
	}{
		{time.Second, 47}, {2 * time.Second, 30}, {4 * time.Second, 18}, {8 * time.Second, 10},
	} {
		frac := 100 * float64(overhead) / float64(overhead+tc.work)
		if frac < tc.want-2 || frac > tc.want+2 {
			t.Errorf("work %v: overhead %.1f%%, paper says %.0f%%", tc.work, frac, tc.want)
		}
	}
}

func TestMeasuredSessionOverheadMatchesModel(t *testing.T) {
	// Run a real continuation session and check that its non-application
	// time is dominated by SKINIT + Unseal as Table 4 says.
	c, _ := newClient(t, "dc-measure")
	c.Slice = time.Second
	srv := NewServer(1_000_003*2, 250_000, 250_000, attestCAPub(t))
	unit, nonce, _ := srv.NextUnit()
	rec := c.P.Clock.Record()
	if _, err := c.ProcessUnit(unit, nonce); err != nil {
		t.Fatal(err)
	}
	totals := map[string]time.Duration{}
	for _, ch := range rec.Stop() {
		totals[ch.Label] += ch.Duration
	}
	unsealMs := simtime.Millis(totals["tpm.unseal"])
	// init session does no unseal; the work session does one: ~898.3 each.
	if unsealMs < 890 || unsealMs > 1800 {
		t.Fatalf("unseal total = %.1f ms", unsealMs)
	}
	appMs := simtime.Millis(totals["app.work"])
	if appMs < 1200 || appMs > 1300 { // 250k candidates at 5us = 1250 ms
		t.Fatalf("app work = %.1f ms, want 1250", appMs)
	}
}

func attestCAPub(t *testing.T) *palcrypto.RSAPublicKey {
	t.Helper()
	ca, err := attest.NewPrivacyCA([]byte("dc-ca"), 0)
	if err != nil {
		t.Fatal(err)
	}
	return ca.PublicKey()
}

func TestFigure8Efficiencies(t *testing.T) {
	overhead := simtime.FromMillis(912.6)
	// Flicker efficiency grows with user latency...
	prev := -1.0
	for l := 1; l <= 10; l++ {
		e := FlickerEfficiency(time.Duration(l)*time.Second, overhead)
		if e <= prev {
			t.Fatalf("efficiency not increasing at %ds", l)
		}
		prev = e
	}
	// ...and at 2 s beats 3-way replication ("a two second user latency
	// allows a more efficient distributed application than replicating to
	// three or more machines").
	if FlickerEfficiency(2*time.Second, overhead) <= ReplicationEfficiency(3) {
		t.Fatal("2s Flicker does not beat 3-way replication")
	}
	// At very small latency, replication wins.
	if FlickerEfficiency(time.Second, overhead) > 0.6 {
		t.Fatal("1s efficiency implausibly high")
	}
	if FlickerEfficiency(500*time.Millisecond, overhead) > ReplicationEfficiency(7) {
		t.Fatal("0.5s Flicker should lose to 7-way replication")
	}
	// Degenerate inputs clamp.
	if FlickerEfficiency(0, overhead) != 0 || FlickerEfficiency(overhead/2, overhead) != 0 {
		t.Fatal("clamping broken")
	}
	if ReplicationEfficiency(0) != 0 {
		t.Fatal("k=0 should be 0")
	}
}

func TestReplicationBaseline(t *testing.T) {
	unit := State{UnitID: 1, N: 91, Next: 2, Hi: 20}
	divs, total := ReplicateUnit(unit, 3, nil)
	if !reflect.DeepEqual(divs, []uint64{7, 13}) {
		t.Fatalf("divisors = %v", divs)
	}
	if total != 3*18*CostPerCandidate {
		t.Fatalf("total work = %v", total)
	}
	// One lying replica is outvoted.
	divs, _ = ReplicateUnit(unit, 3, func(r int, found []uint64) []uint64 {
		if r == 0 {
			return nil
		}
		return found
	})
	if !reflect.DeepEqual(divs, []uint64{7, 13}) {
		t.Fatalf("majority vote failed: %v", divs)
	}
}

func TestPrimeCountApplication(t *testing.T) {
	// The same framework serves a second project: prime search. The unit's
	// AppID rides inside the MAC'd, attested state.
	c, ca := newClient(t, "dc-prime")
	srv := NewServer(1<<62, 100, 100, ca.PublicKey())
	srv.SetApp(AppPrimeCount)
	unit, nonce, _ := srv.NextUnit()
	if unit.App != AppPrimeCount {
		t.Fatalf("unit app = %d", unit.App)
	}
	res, err := c.ProcessUnit(unit, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(res); err != nil {
		t.Fatal(err)
	}
	// Primes in [2, 100).
	want := []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
		47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97}
	if got := srv.Divisors(); !reflect.DeepEqual(got, want) {
		t.Fatalf("primes = %v", got)
	}
}

func TestAppIDProtectedByMACChain(t *testing.T) {
	// Flipping the AppID in a checkpoint is a state tamper: the MAC fails.
	key := []byte("0123456789abcdef0123")
	s := &State{UnitID: 1, App: AppFactor, N: 91, Next: 2, Hi: 10}
	env := Wrap(key, s)
	tampered := append([]byte(nil), env.State...)
	tampered[len(stateMagic)] = byte(AppPrimeCount) // the app byte
	if _, err := Open(key, &SealedEnvelope{State: tampered, MAC: env.MAC}); err == nil {
		t.Fatal("app-id tamper not caught by the MAC")
	}
}

func TestStepSemantics(t *testing.T) {
	f := State{App: AppFactor, N: 21, Next: 2, Hi: 8}
	for !f.Done() {
		f.Step()
	}
	if !reflect.DeepEqual(f.Found, []uint64{3, 7}) {
		t.Fatalf("factor step found %v", f.Found)
	}
	p := State{App: AppPrimeCount, Next: 2, Hi: 12}
	for !p.Done() {
		p.Step()
	}
	if !reflect.DeepEqual(p.Found, []uint64{2, 3, 5, 7, 11}) {
		t.Fatalf("prime step found %v", p.Found)
	}
}
