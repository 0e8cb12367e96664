package noc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// SweepConfig parameterizes an open-loop injection-rate sweep: the same
// spatial pattern driven across an ascending rate ladder, each rate on a
// cold network (one reusable network per worker, rewound by Reset
// between points), with the standard warmup-discard methodology and
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
	// Faults, when non-nil, is installed on every worker network
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

func (c *SweepConfig) validate() error {
	if c.Pattern == nil {
		return fmt.Errorf("noc: sweep needs a pattern")
	}
	if len(c.Rates) == 0 {
		return fmt.Errorf("noc: sweep needs a rate ladder")
	}
	for i, r := range c.Rates {
		if r <= 0 || r > 1 {
			return fmt.Errorf("noc: sweep rate %g outside (0, 1]", r)
		}
		if i > 0 && r <= c.Rates[i-1] {
			return fmt.Errorf("noc: rate ladder not strictly ascending at %g", r)
		}
	}
	if c.Bits <= 0 {
		return fmt.Errorf("noc: sweep packet bits %d", c.Bits)
	}
	if err := checkWindows(c.WarmupCycles, c.MeasureCycles); err != nil {
		return fmt.Errorf("noc: sweep: %w", err)
	}
	return nil
}

// pointSeed derives the per-rate-point generator seed: a fixed mix of
// the sweep seed and the point index, so a point's schedule does not
// depend on which worker simulates it or in what order.
func pointSeed(seed int64, i int) int64 {
	return int64(uint64(seed) + uint64(i)*0x9E3779B97F4A7C15)
}

// PointSeed is the derivation Sweep applies to produce rate point i's
// absolute traffic seed from the sweep seed. Batch callers reproducing a
// Sweep's points byte-for-byte use it to fill BatchPoint.Seed.
func PointSeed(seed int64, i int) int64 { return pointSeed(seed, i) }

// pointSpec is the fully resolved description of one simulation point —
// the shared currency of Sweep and Batch. The seed is absolute (Sweep
// derives per-point seeds via pointSeed before building specs), and
// defaults (batches, saturation threshold) are already applied.
type pointSpec struct {
	pattern      *Pattern
	bits         int
	rate         float64
	warmup       int64
	measure      int64
	batches      int
	seed         int64
	burst        *BurstConfig
	satThreshold float64
	faults       *FaultMap
	routing      RoutingMode
}

// runPoints drives the shared point fleet: workers claim spec indices
// atomically, obtain a network through their worker-local source,
// rewind it cold (Reset or ResetWithFaults per spec), simulate, and
// write results by index — so the output is independent of worker count
// and scheduling. source is invoked once per worker goroutine and
// returns that worker's (get, put) pair: get may hand back a dirty
// network (the fleet rewinds it); put returns it after the point
// completes (a no-op for worker-owned networks, a free-list release for
// pooled ones). The first per-point error aborts the result.
func runPoints(ctx context.Context, parallelism int, specs []pointSpec,
	source func() (get func(i int) (*Network, error), put func(i int, net *Network))) ([]RatePoint, error) {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}

	points := make([]RatePoint, len(specs))
	errs := make([]error, len(specs))
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get, put := source()
			var scratch Trace
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(specs) {
					return
				}
				net, err := get(i)
				if err != nil {
					errs[i] = err
					continue
				}
				sp := &specs[i]
				// Recycling is always on for harness networks (the fleet
				// never retains packets past delivery) and the routing mode
				// is reasserted per point: both are cheap no-ops when
				// already set, and a pooled network may arrive configured
				// for a different point.
				net.SetPacketRecycling(true)
				if err := net.SetRouting(sp.routing); err != nil {
					errs[i] = err
					put(i, net)
					continue
				}
				if sp.faults != nil {
					if errs[i] = net.ResetWithFaults(sp.faults); errs[i] != nil {
						put(i, net)
						continue
					}
				} else {
					net.Reset()
				}
				points[i], scratch, errs[i] = simPoint(ctx, net, sp, scratch)
				put(i, net)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}

// Sweep runs the rate ladder. newNet must build a fresh, cold network
// over the same architecture; Sweep calls it once per worker and rewinds
// the network with Reset between rate points (each point still starts
// from empty buffers and cycle zero), so the router wiring and compiled
// route plans are built once, not once per rate. Packet recycling is
// enabled on the sweep's networks — the harness never retains packets
// past delivery — making the steady-state simulate loop allocation-free.
func Sweep(ctx context.Context, newNet func() (*Network, error), cfg SweepConfig) (*SweepResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Batches <= 0 {
		cfg.Batches = 10
	}
	if cfg.SaturationThreshold <= 0 || cfg.SaturationThreshold >= 1 {
		cfg.SaturationThreshold = 0.9
	}
	specs := make([]pointSpec, len(cfg.Rates))
	for i, r := range cfg.Rates {
		specs[i] = pointSpec{
			pattern:      cfg.Pattern,
			bits:         cfg.Bits,
			rate:         r,
			warmup:       cfg.WarmupCycles,
			measure:      cfg.MeasureCycles,
			batches:      cfg.Batches,
			seed:         pointSeed(cfg.Seed, i),
			burst:        cfg.Burst,
			satThreshold: cfg.SaturationThreshold,
			faults:       cfg.Faults,
			routing:      cfg.Routing,
		}
	}
	points, err := runPoints(ctx, cfg.Parallelism, specs, func() (func(int) (*Network, error), func(int, *Network)) {
		// Each worker owns one factory-built network for its whole run.
		var net *Network
		get := func(int) (*Network, error) {
			if net != nil {
				return net, nil
			}
			n, err := newNet()
			if err != nil {
				return nil, err
			}
			if n.Cycle() != 0 || n.Pending() != 0 {
				return nil, fmt.Errorf("noc: sweep network factory returned a warm network")
			}
			net = n
			return net, nil
		}
		return get, func(int, *Network) {}
	})
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
func simPoint(ctx context.Context, net *Network, sp *pointSpec, scratch Trace) (RatePoint, Trace, error) {
	pt := RatePoint{Rate: sp.rate, MeasuredCycles: sp.measure}
	horizon := sp.warmup + sp.measure
	trace, err := GenerateTraceInto(scratch, sp.pattern, TrafficConfig{
		Nodes: net.Nodes(),
		Bits:  sp.bits,
		Rate:  sp.rate,
		Seed:  sp.seed,
		Burst: sp.burst,
	}, horizon)
	if err != nil {
		return pt, trace, err
	}
	for _, ev := range trace {
		if ev.Cycle >= sp.warmup {
			pt.Injected++
		}
	}

	var lats []float64
	ti := 0
	for net.cycle < horizon {
		if net.cycle == sp.warmup {
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
					return pt, trace, fmt.Errorf("noc: sweep rate %g event %d: %w", sp.rate, ti, err)
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

	st := net.Stats()
	n := float64(len(net.Nodes()))
	window := float64(sp.measure)
	pt.Offered = float64(pt.Injected) / (n * window)
	pt.Delivered = st.Delivered
	pt.Accepted = float64(st.Delivered) / (n * window)
	pt.AvgLatency, pt.LatencyCI95 = stats.BatchMeans(lats, sp.batches)
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
		(pt.Delivered == 0 || pt.Accepted < sp.satThreshold*deliverable)
	return pt, trace, nil
}
