package main

import (
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{n: 1, p: 50, beyond: 0, ok: false},
		{n: 19, p: 50, beyond: 9, ok: false},
		{n: 20, p: 50, beyond: 10, ok: true},
		{n: 99, p: 50, beyond: 49, ok: true}, // p90 would leave 9 beyond
		{n: 100, p: 90, beyond: 10, ok: true},
		{n: 999, p: 90, beyond: 99, ok: true},
		{n: 1000, p: 99, beyond: 10, ok: true},
		{n: 10000, p: 99.9, beyond: 10, ok: true},
	} {
		p, beyond, ok := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, ok %v; want p%g, %d beyond, ok %v",
				c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %g, want 9", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %g, want 2", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, name := range []string{"setup_s", "core.solve_ms", "go.alloc_mb_per_req", "trace.overhead_frac", "a-b", "9x", strings.Repeat("a", 64)} {
		if !metricName.MatchString(name) {
			t.Errorf("%q rejected", name)
		}
	}
	for _, name := range []string{"", "_x", ".x", "a b", "a/b", "req%", "é", strings.Repeat("a", 65)} {
		if metricName.MatchString(name) {
			t.Errorf("%q accepted", name)
		}
	}
	var m metricSet
	defer func() {
		if recover() == nil {
			t.Error("metricSet accepted a name outside the grammar")
		}
	}()
	m.add("bad name", "ms", 1)
}

func TestSelfTime(t *testing.T) {
	d := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: d(0), End: d(100)},
		{ID: 2, Parent: 1, Name: "a", Start: d(10), End: d(40)},
		{ID: 3, Parent: 1, Name: "b", Start: d(30), End: d(60)},   // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: d(15), End: d(20)},   // nested in a
		{ID: 5, Parent: 1, Name: "b", Start: d(90), End: d(120)},  // runs past root
		{ID: 6, Name: "other", Start: d(200), End: d(210)},        // second root
		{ID: 7, Parent: 6, Name: "a", Start: d(200), End: d(210)}, // covers it all
	}
	want := map[int]time.Duration{1: d(40), 2: d(25), 3: d(30), 4: d(5), 5: d(30), 6: 0, 7: d(10)}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
	agg := aggregate(spans)
	if a := agg["a"]; a.Calls != 2 || a.Self != d(35) || a.Total != d(40) {
		t.Errorf("aggregate of a = %+v", a)
	}
	if a := agg["b"]; a.Calls != 2 || a.Self != d(60) {
		t.Errorf("aggregate of b = %+v", a)
	}
	if r := rootTime(spans); r != d(110) {
		t.Errorf("root time = %v, want 110ms", r)
	}
}
