package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/benchtables*.golden files")

// TestBenchtablesGolden pins the Section 7 report twice: as cmd/benchtables
// prints it, and as every measured value at full float64 precision, which
// the printed report rounds away. Every number is simulated time, so a
// 1 ns change to one profile latency, a moved phase charge or a changed
// layout fails here; a deliberate change reruns with -update.
func TestBenchtablesGolden(t *testing.T) {
	var report, exact bytes.Buffer
	tables, err := Render(&report, "", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		fmt.Fprintf(&exact, "%s\n", tb.ID)
		for _, r := range tb.Rows {
			fmt.Fprintf(&exact, "  %s = %s\n", r.Label, strconv.FormatFloat(r.Measured, 'g', -1, 64))
		}
	}
	for path, got := range map[string][]byte{
		"testdata/benchtables.golden":       report.Bytes(),
		"testdata/benchtables_exact.golden": exact.Bytes(),
	} {
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		at := func(s []string, i int) string {
			if i < len(s) {
				return s[i]
			}
			return "<end of file>"
		}
		for i := range max(len(g), len(w)) {
			if at(g, i) != at(w, i) {
				t.Errorf("%s line %d moved:\n got %q\nwant %q", path, i+1, at(g, i), at(w, i))
				break
			}
		}
	}
}
