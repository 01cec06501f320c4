package trace

import (
	"strings"
	"testing"
	"time"

	"flicker/internal/core"
	"flicker/internal/pal"
	"flicker/internal/simtime"
)

func TestRenderTimeline(t *testing.T) {
	p, err := core.NewPlatform(core.PlatformConfig{Seed: "trace-test"})
	if err != nil {
		t.Fatal(err)
	}
	hello := &pal.Func{
		PALName: "hello",
		Binary:  pal.DescriptorCode("hello", "1.0", nil, nil),
		Fn: func(env *pal.Env, input []byte) ([]byte, error) {
			return []byte("hi"), nil
		},
	}
	res, err := p.RunSession(hello, core.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTimeline(res, 50)
	for _, want := range []string{"session timeline", "skinit", "pal-exec", "resume-os", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// Tiny width is clamped, not broken.
	if out := RenderTimeline(res, 5); !strings.Contains(out, "skinit") {
		t.Error("clamped width broke rendering")
	}
	// Empty session handled.
	if out := RenderTimeline(&core.SessionResult{}, 50); !strings.Contains(out, "empty") {
		t.Error("empty session not handled")
	}
}

func TestRenderCharges(t *testing.T) {
	charges := []simtime.Charge{
		{Label: "tpm.unseal", Duration: 900 * time.Millisecond},
		{Label: "cpu.skinit", Duration: 14 * time.Millisecond},
		{Label: "cpu.skinit", Duration: 14 * time.Millisecond},
	}
	out := RenderCharges(charges)
	if !strings.Contains(out, "tpm.unseal") || !strings.Contains(out, "cpu.skinit") {
		t.Fatalf("labels missing:\n%s", out)
	}
	// Most expensive first.
	if strings.Index(out, "tpm.unseal") > strings.Index(out, "cpu.skinit") {
		t.Error("charges not sorted by cost")
	}
	if !strings.Contains(out, "(2 ops)") {
		t.Error("op counts missing")
	}
	if out := RenderCharges(nil); !strings.Contains(out, "0.000 ms total") {
		t.Errorf("empty charges: %s", out)
	}
}

func TestRenderTimelineZeroDurationPhase(t *testing.T) {
	// A phase shorter than one cell still renders a visible bar.
	res := &core.SessionResult{
		Start: 0,
		End:   100 * time.Millisecond,
		Phases: []core.Phase{
			{Name: "big", Start: 0, Duration: 100 * time.Millisecond},
			{Name: "tiny", Start: 100 * time.Millisecond, Duration: 0},
		},
	}
	out := RenderTimeline(res, 40)
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "tiny") && !strings.Contains(line, "#") {
			t.Errorf("zero-duration phase has no bar: %q", line)
		}
	}
}

func TestRenderChargesTieBreak(t *testing.T) {
	// Equal-cost labels sort alphabetically, so output is deterministic.
	charges := []simtime.Charge{
		{Label: "b.op", Duration: time.Millisecond},
		{Label: "a.op", Duration: time.Millisecond},
	}
	out := RenderCharges(charges)
	if strings.Index(out, "a.op") > strings.Index(out, "b.op") {
		t.Errorf("tie not broken alphabetically:\n%s", out)
	}
}
