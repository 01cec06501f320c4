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
		if line, g, w := firstMovedLine(string(got), string(want)); line > 0 {
			t.Errorf("%s line %d moved:\n got %q\nwant %q", path, line, g, w)
		}
	}
}

// firstMovedLine returns the 1-based number of the first line where got and
// want differ, with both lines, or 0 when they are equal.
func firstMovedLine(got, want string) (line int, g, w string) {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	at := func(s []string, i int) string {
		if i < len(s) {
			return s[i]
		}
		return "<end of file>"
	}
	for i := range max(len(gl), len(wl)) {
		if at(gl, i) != at(wl, i) {
			return i + 1, at(gl, i), at(wl, i)
		}
	}
	return 0, "", ""
}

// TestExperimentsReportIsGolden pins EXPERIMENTS.md's "Full reproduction
// output" block to testdata/benchtables.golden byte for byte, so the report
// the document shows is the one the code prints. After a deliberate change
// to the golden, paste it into the block.
func TestExperimentsReportIsGolden(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const open = "## Full reproduction output\n\n```\n"
	_, block, ok := strings.Cut(string(doc), open)
	if ok {
		block, _, ok = strings.Cut(block, "```\n")
	}
	if !ok {
		t.Fatal("EXPERIMENTS.md has no fenced block under \"## Full reproduction output\"")
	}
	want, err := os.ReadFile("testdata/benchtables.golden")
	if err != nil {
		t.Fatal(err)
	}
	if line, g, w := firstMovedLine(block, string(want)); line > 0 {
		t.Errorf("EXPERIMENTS.md report line %d differs from testdata/benchtables.golden:\n got %q\nwant %q",
			line, g, w)
	}
}
