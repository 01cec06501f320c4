package bench

import (
	"fmt"
	"io"
	"strings"
)

// Render writes the Section 7 report as cmd/benchtables prints it: a
// header, then the tables of every experiment, or only of the one keyed
// only when it is not empty. t3scale sizes Table 3's kernel build (1.0 is
// the paper's full 7:22.6 build). It returns the tables it wrote, none for
// an unknown key, and stops at the first experiment that fails.
func Render(w io.Writer, only string, t3scale float64) ([]*Table, error) {
	one := func(t *Table, err error) ([]*Table, error) { return []*Table{t}, err }
	experiments := []struct {
		key string
		run func() ([]*Table, error)
	}{
		{"t1", func() ([]*Table, error) { return one(Table1RootkitBreakdown()) }},
		{"t2", func() ([]*Table, error) { return one(Table2SkinitVsSize()) }},
		{"t3", func() ([]*Table, error) { return one(Table3SystemImpact(t3scale)) }},
		{"t4", func() ([]*Table, error) { return one(Table4DistcompOverhead()) }},
		{"f6", func() ([]*Table, error) { return one(Figure6Modules(), nil) }},
		{"f8", func() ([]*Table, error) { return one(Figure8Efficiency()) }},
		{"f9", func() ([]*Table, error) {
			a, b, err := Figure9SSH()
			return []*Table{a, b}, err
		}},
		{"ca", func() ([]*Table, error) { return one(CASignLatency()) }},
		{"7.5", func() ([]*Table, error) { return one(Sec75BlockDeviceIntegrity(16<<20, 5)) }},
		{"abl", func() ([]*Table, error) { return one(AblationTPMProfiles()) }},
		{"nextgen", func() ([]*Table, error) { return one(AblationNextGenSession()) }},
		{"multicore", func() ([]*Table, error) { return one(AblationMulticoreImpact()) }},
	}
	fmt.Fprintln(w, "Flicker (EuroSys 2008) — evaluation reproduction")
	fmt.Fprintln(w, strings.Repeat("=", 78))
	var all []*Table
	for _, e := range experiments {
		if only != "" && e.key != only {
			continue
		}
		tables, err := e.run()
		if err != nil {
			return all, fmt.Errorf("experiment %s: %w", e.key, err)
		}
		for _, t := range tables {
			fmt.Fprintln(w, t.Format())
		}
		all = append(all, tables...)
	}
	return all, nil
}
