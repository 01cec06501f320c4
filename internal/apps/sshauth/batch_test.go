package sshauth

import (
	"errors"
	"testing"
)

// LoginBatch: N password checks in ONE Flicker session, with grant/deny
// decisions identical to N singleton Logins.
func TestLoginBatch(t *testing.T) {
	r := newRig(t)
	r.handshake(t)
	r.srv.AddUser("bob", "hunter2", "saltsalt")

	attempts := make([]LoginAttempt, 4)
	// alice: correct password.
	n0 := r.srv.FreshNonce()
	ct0, err := r.client.Encrypt("correct horse battery", n0)
	if err != nil {
		t.Fatal(err)
	}
	attempts[0] = LoginAttempt{User: "alice", Ciphertext: ct0, Nonce: n0}
	// bob: correct password.
	n1 := r.srv.FreshNonce()
	ct1, err := r.client.Encrypt("hunter2", n1)
	if err != nil {
		t.Fatal(err)
	}
	attempts[1] = LoginAttempt{User: "bob", Ciphertext: ct1, Nonce: n1}
	// alice: wrong password.
	n2 := r.srv.FreshNonce()
	ct2, err := r.client.Encrypt("wrong password", n2)
	if err != nil {
		t.Fatal(err)
	}
	attempts[2] = LoginAttempt{User: "alice", Ciphertext: ct2, Nonce: n2}
	// unknown user.
	n3 := r.srv.FreshNonce()
	ct3, err := r.client.Encrypt("whatever", n3)
	if err != nil {
		t.Fatal(err)
	}
	attempts[3] = LoginAttempt{User: "mallory", Ciphertext: ct3, Nonce: n3}

	sessions := func() float64 { return r.p.Metrics.Snapshot().Sum("flicker_sessions_total", "ok") }
	before := sessions()
	errs := r.srv.LoginBatch(attempts)
	if got := sessions() - before; got != 1 {
		t.Fatalf("LoginBatch ran %v sessions for 4 attempts, want 1", got)
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
	errs := r.srv.LoginBatch([]LoginAttempt{
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
