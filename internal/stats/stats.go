// Package stats provides the small numeric helpers the benchmark harness
// uses to aggregate and print experiment series.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (0 for fewer than 2
// values).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// tTable95 holds two-sided 95% Student-t critical values for 1..30
// degrees of freedom; larger dof fall back to the normal 1.96.
var tTable95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom (1.96 for dof > 30, 0 for dof < 1).
func TCritical95(dof int) float64 {
	if dof < 1 {
		return 0
	}
	if dof <= len(tTable95) {
		return tTable95[dof-1]
	}
	return 1.96
}

// BatchMeans estimates the steady-state mean of a correlated sample
// (per-packet latencies from one simulation run) by the method of batch
// means: the sample is split in order into k equal batches, whose means
// are approximately independent, and a Student-t 95% confidence interval
// is formed over them. It returns the grand mean and the CI half-width
// (0 when fewer than 2 batches fit). Trailing observations that do not
// fill the last batch are dropped, as is standard.
func BatchMeans(xs []float64, batches int) (mean, halfwidth float64) {
	if len(xs) == 0 || batches < 1 {
		return 0, 0
	}
	if batches > len(xs) {
		batches = len(xs)
	}
	size := len(xs) / batches
	if size == 0 {
		return Mean(xs), 0
	}
	bm := make([]float64, batches)
	for i := range bm {
		bm[i] = Mean(xs[i*size : (i+1)*size])
	}
	mean = Mean(bm)
	if batches < 2 {
		return mean, 0
	}
	halfwidth = TCritical95(batches-1) * StdDev(bm) / math.Sqrt(float64(batches))
	return mean, halfwidth
}

// Series is a labeled (x, y) sequence for experiment output.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table renders the series as an aligned two-column text table.
func (s *Series) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n%-12s %-12s\n", s.Name, s.XLabel, s.YLabel)
	for i := range s.X {
		fmt.Fprintf(&b, "%-12.4g %-12.4g\n", s.X[i], s.Y[i])
	}
	return b.String()
}
