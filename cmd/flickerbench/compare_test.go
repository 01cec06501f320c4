package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	mv := func(xs ...float64) *metricValue { return &metricValue{Value: median(xs), Samples: xs} }
	cases := []struct {
		name   string
		a, b   *metricValue
		better string
		want   string
	}{
		{"same", mv(100, 101, 99), mv(100, 100, 101), "higher", "within"},
		{"small drop", mv(100, 101, 99), mv(95, 96, 94), "higher", "within"},
		{"big drop", mv(100, 101, 99), mv(80, 81, 79), "higher", "worse"},
		{"big rise", mv(100, 101, 99), mv(120, 121, 119), "higher", "better"},
		{"latency up is worse", mv(10, 10.1, 9.9), mv(12, 12.1, 11.9), "lower", "worse"},
		{"latency down is better", mv(10, 10.1, 9.9), mv(8, 8.1, 7.9), "lower", "better"},
		{"noisy side", mv(100, 140, 60, 120, 80), mv(100, 101, 99), "higher", "unresolved"},
		{"noisy but every run better", mv(100, 90, 110, 95, 105), mv(150, 170, 130, 160, 140), "higher", "better"},
		{"single values", &metricValue{Value: 1000}, &metricValue{Value: 850}, "higher", "worse"},
		{"missing", mv(1), nil, "higher", "missing"},
		{"insufficient", mv(1), &metricValue{Insufficient: true}, "lower", "missing"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.a, c.b, 0.10, c.better); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsMachineMismatch(t *testing.T) {
	spec := benchSpec{EndToEnd: []specMetric{{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.10}}}
	res := func(v float64) map[string]*result {
		return map[string]*result{wHello: {Metrics: map[string]*metricValue{"throughput_rps": {Value: v}}}}
	}
	a := &resultFile{GoVersion: "go1.24.0", NProc: 2, Workloads: res(1000)}
	b := &resultFile{GoVersion: "go1.24.0", NProc: 4, Workloads: res(700)}
	var out bytes.Buffer
	if worse := compare(&out, spec, a, b); !worse {
		t.Error("a 30% throughput drop did not count as worse")
	}
	if !strings.Contains(out.String(), "WARNING: machines differ") {
		t.Errorf("nproc mismatch not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "classic_hello") || !strings.Contains(out.String(), "worse -30.0%") {
		t.Errorf("row missing:\n%s", out.String())
	}
}
