package analysis

import (
	"flag"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden diagnostic files")

// fixtureCases pairs each analyzer with its seeded fixture package. The
// synthetic import path places the fixture inside the analyzer's scope;
// each fixture holds at least one violation and one near-miss, and the
// golden file is the analyzer's exact expected output.
var fixtureCases = []struct {
	analyzer *Analyzer
	dir      string
	as       string
}{
	{UntrustedLen, "untrustedlen", "flicker/internal/apps/ulfixture"},
	{WallTime, "walltime", "flicker/internal/hw/wtfixture"},
	{ScrubPair, "scrubpair", "flicker/internal/core/spfixture"},
	{LocalityCheck, "localitycheck", "flicker/internal/apps/lcfixture"},
	{MetricHandle, "metrichandle", "flicker/internal/pool/mhfixture"},
	// Tracing-era scope extensions: the tracer package is cycle-accounted
	// (deterministic IDs and sampling), and the fabric's exemplar-bearing
	// observation methods are per-event consumers like Observe.
	{WallTime, "walltime_trace", "flicker/internal/trace/wtfixture"},
	{MetricHandle, "metrichandle_fabric", "flicker/internal/fabric/mhfixture"},
	// flickervet v2: analyzers built on the interprocedural summary engine.
	// The secretflow leak is seeded two calls deep and the untrustedlen_x
	// cases split decode and allocation across functions, so these fixtures
	// fail without the summary transfer.
	{SecretFlow, "secretflow", "flicker/internal/apps/sffixture"},
	{AtomicSafe, "atomicsafe", "flicker/internal/pool/asfixture"},
	{FrameKind, "framekind", "flicker/internal/fabric/fkfixture"},
	{UntrustedLen, "untrustedlen_x", "flicker/internal/apps/ulxfixture"},
}

func TestAnalyzerFixturesGolden(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg, err := l.LoadDirAs(filepath.Join("testdata", "src", tc.dir), tc.as)
			if err != nil {
				t.Fatal(err)
			}
			for _, te := range pkg.TypeErrors {
				t.Fatalf("fixture does not type-check: %v", te)
			}
			if !tc.analyzer.Scope(tc.as) {
				t.Fatalf("synthetic path %q is outside %s's scope", tc.as, tc.analyzer.Name)
			}
			diags := Run(l, []*Package{pkg}, []*Analyzer{tc.analyzer})
			if len(diags) == 0 {
				t.Fatalf("%s missed its seeded violation", tc.analyzer.Name)
			}
			var b strings.Builder
			for _, d := range diags {
				fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n",
					filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
			}
			got := b.String()
			golden := filepath.Join("testdata", "golden", tc.dir+".txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestAnalyzersCleanOnModule is the acceptance gate CI also enforces: the
// module's own code must carry no findings (violations are either fixed or
// carry a justified //flickervet:allow).
func TestAnalyzersCleanOnModule(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, te := range p.TypeErrors {
			t.Fatalf("%s: %v", p.Path, te)
		}
	}
	diags, rep := RunReport(l, pkgs, All())
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d.String())
	}
	// Suppressions are allowed but must be visible: every one carries a
	// reason, and the report totals must agree with the raw list.
	var total int
	for _, a := range rep.Analyzers {
		if a.Findings != 0 {
			t.Errorf("report counts %d unsuppressed %s finding(s) on a clean run", a.Findings, a.Name)
		}
		total += a.Suppressed
	}
	if total != len(rep.Suppress) {
		t.Errorf("per-analyzer suppressed counts sum to %d, report lists %d", total, len(rep.Suppress))
	}
	for _, s := range rep.Suppress {
		if s.Reason == "" {
			t.Errorf("suppression without a reason: %s:%d (%s)", s.File, s.Line, s.Analyzer)
		}
	}
	t.Logf("module clean under %d analyzers with %d justified suppression(s)", len(rep.Analyzers), total)
}

// TestDeclassifierIsExportedPalcrypto pins which callees drop the secret
// tag: palcrypto's exported encrypt/sign/digest API does, but Decrypt*,
// Unmarshal* and palcrypto's unexported helpers keep ordinary summaries.
// Unmarshal* builds keys through such helpers, and a helper that dropped
// the tag would make a recovered private key look clean.
func TestDeclassifierIsExportedPalcrypto(t *testing.T) {
	ip := &Interp{l: &Loader{Module: "flicker"}}
	palcrypto := types.NewPackage("flicker/internal/palcrypto", "palcrypto")
	other := types.NewPackage("flicker/internal/pal", "pal")
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	for _, c := range []struct {
		pkg  *types.Package
		name string
		want bool
	}{
		{palcrypto, "EncryptPKCS1To", true},
		{palcrypto, "SignPKCS1SHA1", true},
		{palcrypto, "DecryptPKCS1", false},
		{palcrypto, "UnmarshalPrivateKey", false},
		{palcrypto, "newPrivateKey", false},
		{other, "Seal", false},
	} {
		f := types.NewFunc(token.NoPos, c.pkg, c.name, sig)
		if got := ip.isDeclassifier(f); got != c.want {
			t.Errorf("isDeclassifier(%s.%s) = %v, want %v", c.pkg.Name(), c.name, got, c.want)
		}
	}
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		in       string
		ok       bool
		analyzer string
	}{
		{"//flickervet:allow walltime(queue delay is wall time)", true, "walltime"},
		{"//flickervet:allow metrichandle(cold path)", true, "metrichandle"},
		{"//flickervet:allow walltime()", false, ""},   // reason mandatory
		{"//flickervet:allow walltime", false, ""},     // no reason at all
		{"// flickervet:allow walltime(x)", false, ""}, // not a directive (space)
		{"//flickervet:allow (x)", false, ""},          // no analyzer name
	}
	for _, tc := range cases {
		d, ok := parseAllow(tc.in)
		if ok != tc.ok {
			t.Errorf("parseAllow(%q) ok = %v, want %v", tc.in, ok, tc.ok)
			continue
		}
		if ok && d.analyzer != tc.analyzer {
			t.Errorf("parseAllow(%q) analyzer = %q, want %q", tc.in, d.analyzer, tc.analyzer)
		}
	}
}
