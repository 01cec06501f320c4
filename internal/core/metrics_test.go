package core

// End-to-end observability tests: after real sessions, the platform's
// Prometheus exposition carries the cross-layer metric families the ISSUE's
// acceptance criteria name — per-ordinal TPM latency histograms, DEV
// violation counters, and session phase durations — and the registry
// survives concurrent sessions and scrapes under the race detector.

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"flicker/internal/metrics"
)

func TestExpositionAfterSession(t *testing.T) {
	p := newPlatform(t)
	res, err := p.RunSession(helloPAL(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PALError != nil {
		t.Fatal(res.PALError)
	}

	// Mount the paper's Section 3.1 malicious-DMA-device attack so the DEV
	// violation counter has a real sample, not just a family header.
	const attackAddr = 1 << 20
	if err := p.Machine.Mem.DEVProtect(attackAddr, 4096); err != nil {
		t.Fatal(err)
	}
	evil := p.Machine.Mem.AttachDevice("evil-nic")
	if _, err := evil.Read(attackAddr, 16); err == nil {
		t.Fatal("DEV failed to block the attack read")
	}

	var buf bytes.Buffer
	if err := p.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()

	// The three families the acceptance criteria name, with real samples.
	for _, want := range []string{
		`flicker_tpm_command_seconds_bucket{le="+Inf",ordinal="hashstart"} 1`,
		`flicker_dev_violations_total{device="evil-nic",op="read"} 1`,
		`flicker_session_phase_seconds_bucket{le="+Inf",phase="pal-exec"} 1`,
		`flicker_sessions_total{pipeline="classic",result="ok"} 1`,
		`flicker_tis_requests_total{locality="2",result="granted"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The event log saw the session's PCR-17 reset and the blocked DMA.
	if n := len(p.Events.EventsByKind(metrics.EventPCR17Reset)); n != 1 {
		t.Errorf("pcr17-reset events = %d, want 1", n)
	}
	if n := len(p.Events.EventsByKind(metrics.EventDEVViolation)); n != 1 {
		t.Errorf("dev-violation events = %d, want 1", n)
	}
}

func TestAbortedSessionMetrics(t *testing.T) {
	p := newPlatform(t)
	if _, err := p.RunSession(helloPAL(), SessionOptions{FailPhase: "skinit"}); err == nil {
		t.Fatal("fault-injected session succeeded")
	}

	var buf bytes.Buffer
	if err := p.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		`flicker_sessions_total{pipeline="classic",result="aborted"} 1`,
		`flicker_session_aborts_total{phase="skinit"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if n := len(p.Events.EventsByKind(metrics.EventSessionAbort)); n != 1 {
		t.Errorf("session-abort events = %d, want 1", n)
	}
	if n := p.Metrics.Snapshot().Sum("flicker_session_aborts_total", "skinit"); n != 1 {
		t.Errorf("skinit aborts = %v, want 1", n)
	}
}

// TestMetricsConcurrentSessions hammers one registry from concurrent
// sessions and concurrent scrapers; run under -race (CI does) it proves the
// registry, event log, and every instrumented layer are data-race free.
func TestMetricsConcurrentSessions(t *testing.T) {
	p := newPlatform(t)
	const workers, perWorker = 4, 3

	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				if _, err := p.RunSession(helloPAL(), SessionOptions{}); err != nil {
					t.Errorf("session: %v", err)
					return
				}
			}
		}()
	}
	// Scrape both expositions continuously while the sessions run.
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-done:
					return
				default:
					var buf bytes.Buffer
					p.Metrics.WritePrometheus(&buf)
					p.Metrics.Snapshot()
					p.Events.Events()
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	scrapers.Wait()

	total := workers * perWorker
	var buf bytes.Buffer
	p.Metrics.WritePrometheus(&buf)
	want := `flicker_sessions_total{pipeline="classic",result="ok"} 12`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("exposition missing %q after %d sessions", want, total)
	}
	if n := p.Metrics.Snapshot().Sum("flicker_sessions_total", "ok"); n != float64(total) {
		t.Errorf("completed sessions = %v, want %d", n, total)
	}
}
