package sshauth

import (
	"errors"
	"testing"

	"flicker/internal/core"
	"flicker/internal/palcrypto"
	"flicker/internal/tpm"
)

// loginAttempt is one login of a batch.
type loginAttempt struct {
	User       string
	Ciphertext []byte
	Nonce      tpm.Digest
}

// runLoginBatch runs the SSH PAL's framed batch, the one the pool and
// fabric coalesce into, with the sealed key blob as the batch header: one
// unseal, then a decrypt and an md5crypt per attempt. It returns nil for a
// granted login and ErrLoginFailed otherwise, decided as Login decides.
func runLoginBatch(t *testing.T, r *rig, attempts []loginAttempt) []error {
	t.Helper()
	reqs := make([][]byte, len(attempts))
	for i, at := range attempts {
		reqs[i] = EncodeBatchLogin(at.Ciphertext, r.srv.passwd[at.User].Salt, at.Nonce)
	}
	br, err := r.p.RunSessionBatch(NewSSHPAL(), core.Batch{Header: r.srv.sdata, Requests: reqs},
		core.SessionOptions{TwoStage: true})
	if err != nil {
		t.Fatal(err)
	}
	if br.Session.PALError != nil {
		t.Fatalf("batch PAL: %v", br.Session.PALError)
	}
	errs := make([]error, len(attempts))
	for i, at := range attempts {
		entry, known := r.srv.passwd[at.User]
		if !known || br.Replies[i].Err != nil ||
			!palcrypto.ConstantTimeEqual(br.Replies[i].Output, []byte(entry.Stored)) {
			errs[i] = ErrLoginFailed
		}
	}
	return errs
}

// A batch checks N passwords in ONE Flicker session, with grant/deny
// decisions identical to N singleton Logins.
func TestLoginBatch(t *testing.T) {
	r := newRig(t)
	r.handshake(t)
	r.srv.AddUser("bob", "hunter2", "saltsalt")

	attempts := make([]loginAttempt, 4)
	// alice: correct password.
	n0 := r.srv.FreshNonce()
	ct0, err := r.client.Encrypt("correct horse battery", n0)
	if err != nil {
		t.Fatal(err)
	}
	attempts[0] = loginAttempt{User: "alice", Ciphertext: ct0, Nonce: n0}
	// bob: correct password.
	n1 := r.srv.FreshNonce()
	ct1, err := r.client.Encrypt("hunter2", n1)
	if err != nil {
		t.Fatal(err)
	}
	attempts[1] = loginAttempt{User: "bob", Ciphertext: ct1, Nonce: n1}
	// alice: wrong password.
	n2 := r.srv.FreshNonce()
	ct2, err := r.client.Encrypt("wrong password", n2)
	if err != nil {
		t.Fatal(err)
	}
	attempts[2] = loginAttempt{User: "alice", Ciphertext: ct2, Nonce: n2}
	// unknown user.
	n3 := r.srv.FreshNonce()
	ct3, err := r.client.Encrypt("whatever", n3)
	if err != nil {
		t.Fatal(err)
	}
	attempts[3] = loginAttempt{User: "mallory", Ciphertext: ct3, Nonce: n3}

	sessions := func() float64 { return r.p.Metrics.Snapshot().Sum("flicker_sessions_total", "ok") }
	before := sessions()
	errs := runLoginBatch(t, r, attempts)
	if got := sessions() - before; got != 1 {
		t.Fatalf("the batch ran %v sessions for 4 attempts, want 1", got)
	}
	if errs[0] != nil {
		t.Errorf("alice (correct): %v", errs[0])
	}
	if errs[1] != nil {
		t.Errorf("bob (correct): %v", errs[1])
	}
	if !errors.Is(errs[2], ErrLoginFailed) {
		t.Errorf("alice (wrong password) = %v, want ErrLoginFailed", errs[2])
	}
	if !errors.Is(errs[3], ErrLoginFailed) {
		t.Errorf("mallory (unknown) = %v, want ErrLoginFailed", errs[3])
	}

	// The batched decisions match singleton Login exactly.
	if err := r.srv.Login("alice", ct0, n0); err != nil {
		t.Errorf("singleton alice (correct): %v", err)
	}
	if err := r.srv.Login("alice", ct2, n2); !errors.Is(err, ErrLoginFailed) {
		t.Errorf("singleton alice (wrong) = %v, want ErrLoginFailed", err)
	}
}

// A replayed ciphertext (stale nonce) inside a batch fails only its own
// attempt.
func TestLoginBatchReplayIsolated(t *testing.T) {
	r := newRig(t)
	r.handshake(t)
	nonce := r.srv.FreshNonce()
	ct, err := r.client.Encrypt("correct horse battery", nonce)
	if err != nil {
		t.Fatal(err)
	}
	stale := r.srv.FreshNonce() // server expects this, ct carries the old one
	errs := runLoginBatch(t, r, []loginAttempt{
		{User: "alice", Ciphertext: ct, Nonce: stale}, // replay
		{User: "alice", Ciphertext: ct, Nonce: nonce}, // honest
	})
	if !errors.Is(errs[0], ErrLoginFailed) {
		t.Errorf("replayed attempt = %v, want ErrLoginFailed", errs[0])
	}
	if errs[1] != nil {
		t.Errorf("honest attempt alongside a replay: %v", errs[1])
	}
}
