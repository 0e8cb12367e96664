package noc

import (
	"bytes"
	"testing"
)

func TestReliabilitySweep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumVCs = 2
	arch := meshArch(t, 4, 4, cfg)
	pat, err := NewPattern("uniform", 16)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := ReliabilityConfig{
		Sweep: SweepConfig{
			Pattern:       pat,
			Bits:          128,
			Rates:         []float64{0.02, 0.08},
			WarmupCycles:  100,
			MeasureCycles: 600,
			Seed:          1,
			Parallelism:   2,
			Routing:       RoutingAdaptive,
		},
		FaultRates: []float64{0, 0.1},
		FaultSeed:  7,
	}
	run := func() *ReliabilityResult {
		t.Helper()
		res, err := ReliabilitySweep(t.Context(), arch, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if len(res.Points) != 2 {
		t.Fatalf("%d points, want 2", len(res.Points))
	}
	if res.Routing != "adaptive" || res.Pattern != "uniform" {
		t.Fatalf("result labels: routing %q pattern %q", res.Routing, res.Pattern)
	}
	p0, p1 := res.Points[0], res.Points[1]
	if p0.FailedLinks != 0 || p0.Faults != "" {
		t.Fatalf("rate-0 point failed %d links (%q)", p0.FailedLinks, p0.Faults)
	}
	if p1.FailedLinks == 0 || p1.Faults == "" {
		t.Fatal("rate-0.1 point failed no links")
	}
	for _, p := range res.Points {
		if p.Sweep == nil || len(p.Sweep.Points) != 2 {
			t.Fatalf("point %g: missing sweep result", p.FaultRate)
		}
		if p.DeliveredFraction <= 0 || p.DeliveredFraction > 1.01 {
			t.Fatalf("point %g: delivered fraction %g", p.FaultRate, p.DeliveredFraction)
		}
		if p.ZeroLoadLatency <= 0 || p.PeakAccepted <= 0 {
			t.Fatalf("point %g: zero-load %g peak %g", p.FaultRate, p.ZeroLoadLatency, p.PeakAccepted)
		}
	}
	// Deterministic end to end: a second run emits identical JSON.
	var a, b bytes.Buffer
	if err := res.EncodeJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := run().EncodeJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("reliability sweep not deterministic across runs")
	}

	if _, err := ReliabilitySweep(t.Context(), BatchArch{Cfg: cfg}, rcfg); err == nil {
		t.Fatal("nil architecture accepted")
	}
	bad := rcfg
	bad.FaultRates = nil
	if _, err := ReliabilitySweep(t.Context(), arch, bad); err == nil {
		t.Fatal("empty ladder accepted")
	}
}
