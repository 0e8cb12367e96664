package noc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/stats"
)

// SweepConfig parameterizes an open-loop injection-rate sweep: the same
// spatial pattern driven across an ascending rate ladder, each rate on a
// cold network, with the standard warmup-discard methodology and
// batch-means confidence intervals over the measured latencies.
type SweepConfig struct {
	// Pattern is the spatial pattern, built for the network's node count.
	Pattern *Pattern
	// Bits is the packet payload size.
	Bits int
	// Rates is the offered-load ladder in packets per node per cycle; it
	// must be strictly ascending (the monotone ladder the latency-
	// throughput curve is defined over).
	Rates []float64
	// WarmupCycles are simulated then discarded before measurement starts
	// (transient removal).
	WarmupCycles int64
	// MeasureCycles is the measurement-window length.
	MeasureCycles int64
	// Batches is the batch count for the batch-means 95% confidence
	// interval over per-packet latency (default 10).
	Batches int
	// Seed makes the whole sweep deterministic; each rate point derives
	// its own generator seed from it, independent of evaluation order.
	Seed int64
	// Burst optionally layers the on/off arrival modulation over the
	// pattern at every rate.
	Burst *BurstConfig
	// Parallelism is the number of rate points simulated concurrently
	// (0 = GOMAXPROCS, 1 = serial). Points are independent simulations,
	// so the result is identical at every setting.
	Parallelism int
	// SaturationThreshold is the accepted/offered throughput ratio below
	// which a point counts as saturated (default 0.9): past saturation an
	// open-loop network cannot eject packets as fast as the sources offer
	// them, so the two curves diverge.
	SaturationThreshold float64
	// Faults, when non-nil, is installed on the network
	// (ResetWithFaults) before each rate point: static failures are
	// present from cycle zero, scheduled ones strike mid-point. Offered
	// load still counts every generated packet; injections the faults
	// refuse surface as the point's Blocked, purged in-flight packets as
	// its Dropped, and saturation is judged against the deliverable load
	// (generated minus blocked and dropped).
	Faults *FaultMap
	// Routing selects the route-resolution mode (default oblivious, the
	// golden-pinned path). Adaptive mode requires the networks to be
	// built with >= 2 virtual channels.
	Routing RoutingMode
}

// RatePoint is the measurement at one offered load.
type RatePoint struct {
	// Rate is the configured injection rate (packets per node per cycle).
	Rate float64 `json:"rate"`
	// Offered is the realized offered load in the measurement window:
	// generated packets per node per cycle.
	Offered float64 `json:"offered"`
	// Accepted is the delivered throughput in the window: ejected packets
	// per node per cycle.
	Accepted float64 `json:"accepted"`
	// AvgLatency is the batch-means estimate of mean packet latency
	// (cycles) over deliveries in the window; LatencyCI95 is the Student-t
	// 95% confidence half-width over the batch means.
	AvgLatency  float64 `json:"avgLatency"`
	LatencyCI95 float64 `json:"latencyCI95"`
	// MinLatency/MaxLatency/P50Latency/P99Latency summarize the window's
	// latency distribution.
	MinLatency int64   `json:"minLatency"`
	MaxLatency int64   `json:"maxLatency"`
	P50Latency float64 `json:"p50Latency"`
	P99Latency float64 `json:"p99Latency"`
	// Injected counts packets generated in the window; Delivered counts
	// packets ejected in it.
	Injected  int64 `json:"injected"`
	Delivered int64 `json:"delivered"`
	// Blocked counts window injections refused because faults cut the
	// route; Dropped counts packets purged in flight by a fault striking
	// inside the window. Both are zero (and omitted) without faults.
	Blocked int64 `json:"blocked,omitempty"`
	Dropped int64 `json:"dropped,omitempty"`
	// MeasuredCycles is the window length (echoed for self-description).
	MeasuredCycles int64 `json:"measuredCycles"`
	// Saturated marks offered-vs-accepted divergence at this point.
	Saturated bool `json:"saturated"`
}

// SweepResult is the full latency-throughput characterization of one
// (architecture, pattern) pair.
type SweepResult struct {
	Pattern       string `json:"pattern"`
	Nodes         int    `json:"nodes"`
	Bits          int    `json:"bits"`
	Seed          int64  `json:"seed"`
	WarmupCycles  int64  `json:"warmupCycles"`
	MeasureCycles int64  `json:"measureCycles"`
	// Routing and Faults echo the non-default scenario knobs (omitted for
	// the default oblivious, fault-free sweep, keeping legacy fixtures
	// byte-identical). Faults is the fault map's canonical spec string.
	Routing string      `json:"routing,omitempty"`
	Faults  string      `json:"faults,omitempty"`
	Points  []RatePoint `json:"points"`
	// Saturated reports whether the ladder reached saturation;
	// SaturationRate is the lowest configured rate whose point diverged
	// (0 when the ladder never saturates).
	Saturated      bool    `json:"saturated"`
	SaturationRate float64 `json:"saturationRate"`
}

// EncodeJSON writes the canonical indented JSON form of the result. The
// sweep is deterministic end to end, so the bytes are identical for a
// fixed (network, config) across runs and Parallelism settings.
func (r *SweepResult) EncodeJSON(w io.Writer) error {
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

// PointSeed derives rate point i's absolute traffic seed from a sweep
// seed: a fixed mix of the two, so a point's schedule does not depend on
// which worker simulates it or in what order. Sweep fills each point's
// BatchPoint.Seed with it; Batch callers reproducing a Sweep's points
// byte for byte use it the same way.
func PointSeed(seed int64, i int) int64 {
	return int64(uint64(seed) + uint64(i)*0x9E3779B97F4A7C15)
}

// Sweep runs the rate ladder over one architecture as a Batch: point i
// is rate i with seed PointSeed(cfg.Seed, i), simulated at
// cfg.Parallelism on a private network pool, so the router wiring and
// the compiled route plans are built once per worker, not once per
// rate, and every point still starts from a cold network. Sweep checks
// only the ladder's shape (non-empty, strictly ascending); Batch.Run
// validates each point and applies the defaults.
func Sweep(ctx context.Context, arch BatchArch, cfg SweepConfig) (*SweepResult, error) {
	if len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("noc: sweep needs a rate ladder")
	}
	for i := 1; i < len(cfg.Rates); i++ {
		if cfg.Rates[i] <= cfg.Rates[i-1] {
			return nil, fmt.Errorf("noc: rate ladder not strictly ascending at %g", cfg.Rates[i])
		}
	}
	b := &Batch{
		Archs:       []BatchArch{arch},
		Points:      make([]BatchPoint, len(cfg.Rates)),
		Parallelism: cfg.Parallelism,
	}
	for i, r := range cfg.Rates {
		b.Points[i] = BatchPoint{
			Pattern:             cfg.Pattern,
			Bits:                cfg.Bits,
			Rate:                r,
			WarmupCycles:        cfg.WarmupCycles,
			MeasureCycles:       cfg.MeasureCycles,
			Batches:             cfg.Batches,
			Seed:                PointSeed(cfg.Seed, i),
			Burst:               cfg.Burst,
			SaturationThreshold: cfg.SaturationThreshold,
			Faults:              cfg.Faults,
			Routing:             cfg.Routing,
		}
	}
	points, err := b.Run(ctx)
	if err != nil {
		return nil, err
	}

	res := &SweepResult{
		Pattern:       cfg.Pattern.Name(),
		Nodes:         cfg.Pattern.n,
		Bits:          cfg.Bits,
		Seed:          cfg.Seed,
		WarmupCycles:  cfg.WarmupCycles,
		MeasureCycles: cfg.MeasureCycles,
		Points:        points,
	}
	if cfg.Routing != RoutingOblivious {
		res.Routing = cfg.Routing.String()
	}
	if cfg.Faults.Len() > 0 {
		res.Faults = cfg.Faults.String()
	}
	for _, pt := range points {
		if pt.Saturated {
			res.Saturated = true
			res.SaturationRate = pt.Rate
			break
		}
	}
	return res, nil
}

// simPoint simulates one point on a cold network: generate the
// open-loop schedule over warmup+measure cycles (into the worker's
// reusable scratch buffer), run the warmup with statistics discarded at
// its end (ResetStats), then measure. The (possibly grown) trace buffer
// is returned to the caller for the next point.
func simPoint(ctx context.Context, net *Network, sp *BatchPoint, scratch Trace) (RatePoint, Trace, error) {
	pt := RatePoint{Rate: sp.Rate, MeasuredCycles: sp.MeasureCycles}
	horizon := sp.WarmupCycles + sp.MeasureCycles
	nodes := net.Nodes()
	trace, err := GenerateTraceInto(scratch, sp.Pattern, TrafficConfig{
		Nodes: nodes,
		Bits:  sp.Bits,
		Rate:  sp.Rate,
		Seed:  sp.Seed,
		Burst: sp.Burst,
	}, horizon)
	if err != nil {
		return pt, trace, err
	}
	for _, ev := range trace {
		if ev.Cycle >= sp.WarmupCycles {
			pt.Injected++
		}
	}

	var lats []float64
	ti := 0
	for net.cycle < horizon {
		if net.cycle == sp.WarmupCycles {
			net.ResetStats()
			net.OnEject(func(p *Packet) { lats = append(lats, float64(p.Latency())) })
		}
		for ti < len(trace) && trace[ti].Cycle <= net.cycle {
			ev := trace[ti]
			if _, err := net.Inject(ev.Src, ev.Dst, ev.Bits, ev.Tag); err != nil {
				// A fault-blocked source is part of the scenario, not a
				// harness failure: the event is skipped and the network has
				// counted it under Stats.Blocked.
				if !errors.Is(err, ErrRouteFaulted) {
					return pt, trace, fmt.Errorf("noc: sweep rate %g event %d: %w", sp.Rate, ti, err)
				}
			}
			ti++
		}
		net.Step()
		if net.cycle&ctxCheckMask == 0 {
			select {
			case <-ctx.Done():
				return pt, trace, ctx.Err()
			default:
			}
		}
	}

	// Only scalar counters are read, so they come straight from the
	// network's accumulator: Stats() would also build the per-router and
	// per-link traversal maps.
	st := &net.stats
	n := float64(len(nodes))
	window := float64(sp.MeasureCycles)
	pt.Offered = float64(pt.Injected) / (n * window)
	pt.Delivered = st.Delivered
	pt.Accepted = float64(st.Delivered) / (n * window)
	pt.AvgLatency, pt.LatencyCI95 = stats.BatchMeans(lats, sp.Batches)
	pt.MinLatency = st.MinLatency()
	pt.MaxLatency = st.LatencyMax
	if len(lats) > 0 {
		s := append([]float64(nil), lats...)
		sort.Float64s(s)
		pt.P50Latency = s[len(s)/2]
		pt.P99Latency = s[(len(s)*99)/100]
	}
	pt.Blocked = st.Blocked
	pt.Dropped = st.Dropped
	// Saturation: the accepted curve falls measurably short of the
	// offered one (or nothing is delivered at all while load is offered).
	// Under faults the comparison is against the deliverable load —
	// packets the faults refused or destroyed cannot indict the fabric's
	// capacity (without faults the two loads are identical).
	deliverable := pt.Offered - float64(st.Blocked+st.Dropped)/(n*window)
	pt.Saturated = pt.Offered > 0 &&
		(pt.Delivered == 0 || pt.Accepted < sp.SaturationThreshold*deliverable)
	return pt, trace, nil
}
