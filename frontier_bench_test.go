package repro_test

// The frontier benchmark lives in the external test package: the sweep
// sits above the public API (internal/frontier imports repro), so an
// in-package benchmark would be an import cycle.

import (
	"context"
	"testing"

	repro "repro"
	"repro/internal/frontier"
)

// BenchmarkFrontierAES measures one warm-started ε-constraint frontier
// sweep of the AES ACG in links mode (4-value grid: anchor + three
// constrained solves, each seeded with its predecessor's cost). This is
// the headline workload of the frontier subsystem — the number
// bench_check.sh guards.
func BenchmarkFrontierAES(b *testing.B) {
	acg := repro.AESACG(0.1)
	for i := 0; i < b.N; i++ {
		res, err := frontier.Enumerate(context.Background(), acg, frontier.Options{
			Points: 4,
			Synth:  repro.Options{Mode: repro.CostLinks, MatchLimit: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) < 3 {
			b.Fatalf("frontier collapsed to %d points", len(res.Points))
		}
	}
}
