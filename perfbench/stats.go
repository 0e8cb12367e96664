package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// tailLadder lists the percentiles the tail metric may report, lowest
// first. The tail is the highest of them that leaves at least
// minTailBeyond samples above it, so it never rests on a handful of
// outliers; a fixed ladder keeps the reported percentile from drifting
// with the exact sample count of a run.
var tailLadder = []float64{50, 90, 99, 99.9}

const minTailBeyond = 10

// rankOf is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rankOf(p float64, n int) int {
	// The epsilon keeps float error (99.9% of 10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-6))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the tail percentile for n samples and reports how
// many samples lie beyond its rank. With fewer than 2×minTailBeyond
// samples no percentile qualifies; the median is returned with ok false.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	p, ok = tailLadder[0], false
	for _, q := range tailLadder {
		if b := n - rankOf(q, n); b >= minTailBeyond {
			p, ok = q, true
		}
	}
	return p, n - rankOf(p, n), ok
}

// percentile returns the nearest-rank percentile p of xs (not modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(p, len(s))-1]
}

// median is the midpoint median of xs (mean of the two middle values
// for an even count), the statistic reported for repeated set-ups.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// metricName is the grammar every reported metric name must follow.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported figure.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// metricSet is an ordered list of metrics with name validation.
type metricSet struct {
	list []metric
	seen map[string]bool
}

func (m *metricSet) add(name, unit string, v float64) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("perfbench: metric name %q breaks the name grammar", name))
	}
	if m.seen == nil {
		m.seen = make(map[string]bool)
	}
	if m.seen[name] {
		panic(fmt.Sprintf("perfbench: metric %q reported twice", name))
	}
	m.seen[name] = true
	m.list = append(m.list, metric{Name: name, Unit: unit, Value: v})
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
