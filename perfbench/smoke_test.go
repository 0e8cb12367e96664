package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload at tiny sizes, untraced and traced: no
// check may fail, and each run must report exactly the metrics
// BENCHMARK.json declares, each a finite number.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take tens of seconds")
	}
	endToEnd, perLayer := declared(t)
	for name, mk := range workloads {
		for _, traced := range []bool{false, true} {
			r := &runner{cfg: tinyConfig(), seed: 7, window: 400 * time.Millisecond, traced: traced, nproc: runtime.NumCPU()}
			out, err := execute(context.Background(), r, mk(r.cfg), name, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d checks failed: %v", name, traced, r.failed, r.attempted, r.failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			var got []string
			for _, m := range out.metrics.list {
				got = append(got, m.Name)
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", name, traced, m.Name, m.Value)
				}
			}
			sort.Strings(got)
			sorted := append([]string(nil), want...)
			sort.Strings(sorted)
			if len(got) != len(sorted) {
				t.Fatalf("%s traced=%v: reports %v, BENCHMARK.json declares %v", name, traced, got, sorted)
			}
			for i := range got {
				if got[i] != sorted[i] {
					t.Fatalf("%s traced=%v: reports %v, BENCHMARK.json declares %v", name, traced, got, sorted)
				}
			}
		}
	}
}
