package main

import (
	"strings"
	"testing"

	"flicker"
)

// A benchmark PAL that answers wrongly, or that tampers with PCR-17 while
// answering correctly, must fail the run.
func TestWrongPALIsCaught(t *testing.T) {
	hello := workloadByName(wHello)
	cases := []struct {
		name string
		fn   func(env *flicker.Env, in []byte) ([]byte, error)
		want string
	}{
		{"wrong reply", func(*flicker.Env, []byte) ([]byte, error) { return []byte("ko"), nil }, "wrong output"},
		{"extends PCR-17 behind the verifier's back", func(env *flicker.Env, in []byte) ([]byte, error) {
			return okReply, env.ExtendPCR17(flicker.SHA1Sum(in))
		}, "PCR-17"},
	}
	for _, c := range cases {
		w := *hello
		w.setup = classicSetup(newPAL("hello", c.fn), func(int, []byte) []byte { return okReply })
		r, err := runUntraced(&w, 1, 0.05)
		if err != nil {
			// Set-up checks its warm-up replies too.
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: error %v, want it to mention %q", c.name, err, c.want)
			}
			continue
		}
		if r.Failed == 0 || r.correct() || contractLine(r, false).Correct {
			t.Errorf("%s: run passed (%d of %d failed)", c.name, r.Failed, r.Attempted)
		}
		if !strings.Contains(strings.Join(r.Errors, "\n"), c.want) {
			t.Errorf("%s: errors %q, want one mentioning %q", c.name, r.Errors, c.want)
		}
	}
}

// The honest PALs pass the same checks.
func TestProbeAcceptsHonestPAL(t *testing.T) {
	r, err := runUntraced(workloadByName(wHello), 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct() {
		t.Fatalf("honest hello failed: %d of %d, %q", r.Failed, r.Attempted, r.Errors)
	}
	if got := r.Checks["sim_session_ms"].Value; got != workloadByName(wHello).simSessionMS {
		t.Errorf("sim_session_ms = %v", got)
	}
}
