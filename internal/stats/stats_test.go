package stats

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("mean = %g", got)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Fatal("single-value stddev")
	}
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	// Sample stddev of this classic set is ~2.138.
	if math.Abs(got-2.1381) > 1e-3 {
		t.Fatalf("stddev = %g", got)
	}
}

func TestTCritical95(t *testing.T) {
	if TCritical95(0) != 0 {
		t.Fatal("dof 0 should yield 0")
	}
	if got := TCritical95(1); math.Abs(got-12.706) > 1e-9 {
		t.Fatalf("t(1) = %g", got)
	}
	if got := TCritical95(9); math.Abs(got-2.262) > 1e-9 {
		t.Fatalf("t(9) = %g", got)
	}
	if got := TCritical95(1000); got != 1.96 {
		t.Fatalf("t(1000) = %g", got)
	}
	// Critical values shrink toward the normal limit (flat once past the
	// table).
	for dof := 2; dof <= 40; dof++ {
		if TCritical95(dof) > TCritical95(dof-1) {
			t.Fatalf("t increased at dof %d", dof)
		}
	}
}

func TestBatchMeans(t *testing.T) {
	if m, hw := BatchMeans(nil, 10); m != 0 || hw != 0 {
		t.Fatal("empty input")
	}
	// A constant series has zero-width CI at its value.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 7
	}
	if m, hw := BatchMeans(xs, 10); m != 7 || hw != 0 {
		t.Fatalf("constant series: mean %g hw %g", m, hw)
	}
	// The grand mean of full batches matches the plain mean, and the CI
	// is positive for a non-constant series.
	var ys []float64
	for i := 0; i < 200; i++ {
		ys = append(ys, float64(i%10))
	}
	m, hw := BatchMeans(ys, 10)
	if math.Abs(m-Mean(ys)) > 1e-9 {
		t.Fatalf("batch mean %g vs mean %g", m, Mean(ys))
	}
	if hw < 0 {
		t.Fatalf("negative halfwidth %g", hw)
	}
	// More batches than samples degrades gracefully to per-sample batches.
	m, _ = BatchMeans([]float64{1, 3}, 50)
	if m != 2 {
		t.Fatalf("tiny-sample mean %g", m)
	}
	// A single batch yields the mean with no interval.
	if m, hw := BatchMeans(ys, 1); math.Abs(m-Mean(ys)) > 1e-9 || hw != 0 {
		t.Fatalf("single batch: %g %g", m, hw)
	}
}

func TestSeriesRendering(t *testing.T) {
	s := Series{Name: "fig4a", XLabel: "nodes", YLabel: "seconds"}
	s.Add(5, 0.01)
	s.Add(10, 0.05)
	tab := s.Table()
	if !strings.Contains(tab, "fig4a") || !strings.Contains(tab, "nodes") {
		t.Fatalf("table = %q", tab)
	}
}

// Property: the mean lies between the least and the greatest sample.
func TestPropertyOrderStatistics(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Exclude magnitudes whose sum would overflow float64 — the
			// property under test is ordering, not overflow behavior.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e150 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := slices.Min(xs), slices.Max(xs)
		return lo <= Mean(xs)+1e-9 && Mean(xs) <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
