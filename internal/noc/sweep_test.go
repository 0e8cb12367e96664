package noc

import (
	"bytes"
	"context"
	"testing"
)

// meshArch is the XY-routed rows x cols mesh as a sweep architecture.
func meshArch(t *testing.T, rows, cols int, cfg Config) BatchArch {
	t.Helper()
	arch, ct := compiledMesh(t, rows, cols)
	return BatchArch{Cfg: cfg, Arch: arch, Table: ct}
}

func sweepConfig(t *testing.T, pattern string, rates []float64, par int) SweepConfig {
	t.Helper()
	p, err := NewPattern(pattern, 16)
	if err != nil {
		t.Fatal(err)
	}
	return SweepConfig{
		Pattern:       p,
		Bits:          128,
		Rates:         rates,
		WarmupCycles:  300,
		MeasureCycles: 1500,
		Seed:          42,
		Parallelism:   par,
	}
}

// TestSweepDeterminism is the sweep's analogue of the solver's
// determinism contract: same seed + pattern + rates => byte-identical
// JSON, across repeated runs and across Parallelism settings.
func TestSweepDeterminism(t *testing.T) {
	arch := meshArch(t, 4, 4, DefaultConfig())
	rates := []float64{0.01, 0.03, 0.08, 0.2}
	encode := func(par int) []byte {
		res, err := Sweep(context.Background(), arch, sweepConfig(t, "uniform", rates, par))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := encode(1)
	for _, par := range []int{1, 2, 4, 0} {
		if got := encode(par); !bytes.Equal(got, ref) {
			t.Fatalf("sweep JSON differs at parallelism %d:\n%s\nvs reference\n%s", par, got, ref)
		}
	}
}

// TestSweepAllPatternsSaturate checks the PR's acceptance criterion: on
// a 4x4 mesh, every built-in spatial pattern's ladder is monotone in
// offered load, carries warmup-discarded latency stats, and reaches a
// detected saturation point at the top of the default-style ladder.
func TestSweepAllPatternsSaturate(t *testing.T) {
	arch := meshArch(t, 4, 4, DefaultConfig())
	rates := []float64{0.01, 0.05, 0.12, 0.3}
	for _, name := range PatternNames() {
		res, err := Sweep(context.Background(), arch, sweepConfig(t, name, rates, 0))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Points) != len(rates) {
			t.Fatalf("%s: %d points", name, len(res.Points))
		}
		for i, pt := range res.Points {
			if i > 0 && pt.Offered < res.Points[i-1].Offered {
				t.Fatalf("%s: offered load not monotone at point %d", name, i)
			}
			if pt.Delivered > 0 && (pt.AvgLatency <= 0 || pt.MinLatency <= 0) {
				t.Fatalf("%s: point %d lacks latency stats: %+v", name, i, pt)
			}
		}
		if !res.Saturated || res.SaturationRate == 0 {
			t.Fatalf("%s: no saturation detected: %+v", name, res)
		}
		low := res.Points[0]
		if low.Saturated {
			t.Fatalf("%s: lowest rate already saturated: %+v", name, low)
		}
		if low.LatencyCI95 < 0 {
			t.Fatalf("%s: negative CI", name)
		}
	}
}

func TestSweepLatencyRisesTowardSaturation(t *testing.T) {
	arch := meshArch(t, 4, 4, DefaultConfig())
	res, err := Sweep(context.Background(), arch,
		sweepConfig(t, "uniform", []float64{0.01, 0.3}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[1].AvgLatency <= res.Points[0].AvgLatency {
		t.Fatalf("latency did not rise with load: %+v", res.Points)
	}
	if res.Points[1].Accepted >= res.Points[1].Offered {
		t.Fatalf("saturated point accepted %g >= offered %g",
			res.Points[1].Accepted, res.Points[1].Offered)
	}
}

func TestSweepValidation(t *testing.T) {
	arch := meshArch(t, 2, 2, DefaultConfig())
	p, err := NewPattern("uniform", 4)
	if err != nil {
		t.Fatal(err)
	}
	base := SweepConfig{Pattern: p, Bits: 64, Rates: []float64{0.01}, MeasureCycles: 100}
	bad := base
	bad.Rates = []float64{0.05, 0.02}
	if _, err := Sweep(context.Background(), arch, bad); err == nil {
		t.Fatal("descending ladder accepted")
	}
	bad = base
	bad.Rates = nil
	if _, err := Sweep(context.Background(), arch, bad); err == nil {
		t.Fatal("empty ladder accepted")
	}
	bad = base
	bad.Pattern = nil
	if _, err := Sweep(context.Background(), arch, bad); err == nil {
		t.Fatal("nil pattern accepted")
	}
	bad = base
	bad.MeasureCycles = 0
	if _, err := Sweep(context.Background(), arch, bad); err == nil {
		t.Fatal("zero measurement window accepted")
	}
}

func TestSweepContextCancellation(t *testing.T) {
	arch := meshArch(t, 4, 4, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := sweepConfig(t, "uniform", []float64{0.01, 0.05}, 1)
	cfg.WarmupCycles = 10_000
	cfg.MeasureCycles = 100_000
	if _, err := Sweep(ctx, arch, cfg); err == nil {
		t.Fatal("canceled sweep returned no error")
	}
}
