package flicker_test

import (
	"fmt"
	"testing"
	"time"

	"flicker"
)

// BenchmarkFabricSetupStages builds flickerbench's fabric_mixed system (a
// Privacy CA, a controller with MaxBatch 8, MaxWait 1 ms and Window 4, two
// hosts serving eight PALs, and four sequential warm-up rounds of one Run
// per PAL) and reports the wall time of each set-up stage per build:
// ca-ms (the Privacy CA's key), hosts-ms (the two hosts' platforms and
// PAL registrations), admit-ms (two quote-verified admissions) and
// warmup-ms (the 32 warm-up Runs, which pay one 1 ms coalescer hold in
// all: the controller's per-PAL dispatchers share what the first PAL's
// lone hold learned). Their sum is what flickerbench's setup_s times for
// fabric_mixed, less the controller and switch.
func BenchmarkFabricSetupStages(b *testing.B) {
	echo := func(name string) *flicker.PALFunc {
		return &flicker.PALFunc{
			PALName: name,
			Binary:  flicker.DescriptorCode(name, "1.0", nil, nil),
			Fn:      func(_ *flicker.Env, in []byte) ([]byte, error) { return in[:8], nil },
		}
	}
	names := []string{"bench-hot"}
	for i := 1; i < 8; i++ {
		names = append(names, fmt.Sprintf("bench-cold-%d", i))
	}
	warm := make([]byte, 32)
	var ca, hosts, admit, warmup time.Duration
	for n := 0; n < b.N; n++ {
		reg := flicker.NewMetricsRegistry()
		sw := flicker.NewNetSwitch(0, 0)
		t0 := time.Now()
		pca, err := flicker.NewPrivacyCA([]byte("flickerbench-fabric"), 0)
		if err != nil {
			b.Fatal(err)
		}
		ca += time.Since(t0)
		ctrl, err := flicker.NewFabricController(sw, pca, flicker.FabricControllerConfig{
			Seed: "flickerbench", MaxBatch: 8, MaxWait: time.Millisecond, Window: 4, Metrics: reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range names {
			if err := ctrl.RegisterPAL(echo(name)); err != nil {
				b.Fatal(err)
			}
		}
		var fleet []*flicker.FabricHost
		for h := 0; h < 2; h++ {
			name := fmt.Sprintf("host%d", h)
			t0 = time.Now()
			host, err := flicker.NewFabricHost(sw, pca, flicker.FabricHostConfig{
				Name:     name,
				Platform: flicker.Config{Seed: "flickerbench|" + name, Profile: flicker.ProfileBroadcom(), Metrics: reg},
			})
			if err != nil {
				b.Fatal(err)
			}
			fleet = append(fleet, host)
			for _, pl := range names {
				if err := host.RegisterPAL(echo(pl)); err != nil {
					b.Fatal(err)
				}
			}
			hosts += time.Since(t0)
			t0 = time.Now()
			if err := ctrl.Admit(name); err != nil {
				b.Fatal(err)
			}
			admit += time.Since(t0)
		}
		t0 = time.Now()
		for k := 0; k < 4; k++ {
			for _, name := range names {
				if _, err := ctrl.Run(name, warm); err != nil {
					b.Fatal(err)
				}
			}
		}
		warmup += time.Since(t0)
		ctrl.Close()
		for _, h := range fleet {
			h.Close()
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(b.N) }
	b.ReportMetric(ms(ca), "ca-ms")
	b.ReportMetric(ms(hosts), "hosts-ms")
	b.ReportMetric(ms(admit), "admit-ms")
	b.ReportMetric(ms(warmup), "warmup-ms")
}
