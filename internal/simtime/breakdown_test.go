package simtime_test

import (
	"strings"
	"testing"
	"time"

	"flicker/internal/simtime"
	"flicker/internal/trace"
)

// The per-label breakdown of a clock's charges is rendered from a
// Recording: every label charged inside the window appears in it.
func TestBreakdownContainsLabels(t *testing.T) {
	c := simtime.New()
	rec := c.Record()
	c.Advance(time.Millisecond, "skinit")
	c.Advance(2*time.Millisecond, "quote")
	s := trace.RenderCharges(rec.Stop())
	for _, want := range []string{"skinit", "quote"} {
		if !strings.Contains(s, want) {
			t.Errorf("breakdown missing %q:\n%s", want, s)
		}
	}
}
