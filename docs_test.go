package flicker

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// evidenceDocs are the documents whose claims cite tests, benchmarks,
// fuzzers and examples as their evidence.
var evidenceDocs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md", ".claude/skills/verify/SKILL.md"}

// TestDocsMatchEvidence checks that every Test, Benchmark, Fuzz and Example
// name the evidence documents cite is a function in some _test.go file of
// the repository, so no claim rests on a test that was renamed or deleted.
// A subtest path (TestX/case) or a pattern (TestX*) cites its function, X.
func TestDocsMatchEvidence(t *testing.T) {
	cited := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z_][A-Za-z0-9_]*`)
	defined := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*)\(`)
	have := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range defined.FindAllStringSubmatch(string(src), -1) {
			have[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range evidenceDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		names := cited.FindAllString(string(src), -1)
		if len(names) == 0 {
			t.Errorf("%s cites no tests; the citation pattern no longer matches it", doc)
		}
		for _, name := range names {
			if !have[name] {
				t.Errorf("%s cites %s, which no _test.go file defines", doc, name)
			}
		}
	}
}
