// Package frontier enumerates the energy-vs-latency Pareto frontier of
// a synthesis problem by ε-constraint sweeps over the branch-and-bound
// solver.
//
// The paper's solver optimizes a single scalar objective (energy, links
// or wire length). The frontier enumerator exposes the latent trade-off
// between that objective and communication latency: it first solves the
// unconstrained problem to find the cost anchor (cost E0, volume-weighted
// average hop count L0), then re-solves under a descending sequence of
// latency ceilings ε spanning [1, L0]. Each constrained solve answers
// "what is the cheapest implementation whose average hop count is at
// most ε?", and the set of distinct answers is exactly the Pareto
// frontier of (cost, avg-hops) over the decomposition space:
//
//   - every emitted point is non-dominated: a later (looser-ε) point is
//     only emitted when strictly cheaper, and it cannot also be
//     latency-better — if its average hops fit an earlier, tighter ε the
//     earlier solve would already have found its cost;
//   - every non-dominated cost value is found: the ε grid includes L0,
//     where the constrained solve equals the unconstrained anchor, and
//     costs decrease monotonically as ε loosens.
//
// The sweep is ordered ascending in ε so each solve can warm-start from
// its predecessor: a decomposition feasible at ε_i is feasible at every
// ε_j > ε_i, so the previous optimum's cost is a sound EXCLUSIVE
// incumbent bound (Options.InitialBound) for the next solve. The warm
// solve then hunts only strict improvements — exactly the points the
// frontier emits — pruning both the worse-cost space and the equal-cost
// tie space a cold solve must canonicalize; a dominated ε resolves as a
// cheap "no improvement" proof instead of a full re-solve. Warm-starting
// alone makes the k-1 constrained solves much cheaper than k cold solves
// while leaving every emitted answer byte-identical to its cold
// equivalent.
package frontier

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	repro "repro"
	"repro/internal/core"
	"repro/internal/noc"
)

// DefaultPoints is the ε-grid size used when Options.Points is zero.
const DefaultPoints = 8

// latencySlack is the relative headroom added to each grid ε before it
// becomes the solver's MaxLatency ceiling. The grid value eps_i is
// computed by one float expression while the solver accumulates a leaf's
// weighted hops edge by edge, so a decomposition whose true average
// equals eps_i can land a few ulps above it. The slack (~1e-12 relative,
// about 1e4 ulps) is far below the spacing between distinct achievable
// hop averages on any realistic graph, so it admits only the intended
// boundary decompositions, never a genuinely worse one.
const latencySlack = 1 + 1e-12

// Options configures a frontier enumeration.
type Options struct {
	// Points is the ε-grid size, anchor included (0 = DefaultPoints).
	// Points = 1 degenerates to the unconstrained anchor alone.
	Points int

	// Synth is the base synthesis configuration swept by the
	// enumerator. Its MaxLatency and InitialBound fields are owned by
	// the sweep and overwritten per point; everything
	// else (Mode, MatchLimit, Parallelism, ...) applies to every
	// solve unchanged.
	Synth repro.Options

	// Validate simulates each emitted point's architecture under
	// uniform traffic at a near-zero injection rate and records the
	// measured average packet latency in Point.MeasuredLatency — an
	// end-to-end check that the analytic hop averages order the
	// architectures the same way the cycle-accurate kernel does.
	Validate bool

	// Emit, when non-nil, observes each frontier point as soon as it
	// is proven non-dominated, in ascending-ε order — the hook the
	// service streams NDJSON lines from. Result.Points receives the
	// same points regardless.
	Emit func(Point)
}

// Point is one non-dominated (cost, latency) point of the frontier. The
// JSON-tagged fields are the canonical wire form: they are all fully
// deterministic (no timing, no node counts), so a frontier encodes
// byte-identically across runs, parallelism settings and the local vs
// service paths.
type Point struct {
	// Index is the point's position in emission order (0 = tightest ε).
	Index int `json:"index"`
	// Epsilon is the latency ceiling the point was solved under.
	Epsilon float64 `json:"epsilon"`
	// Cost is the decomposition's objective value (energy, links or
	// wire length per Options.Synth.Mode).
	Cost float64 `json:"cost"`
	// AvgHops is the decomposition's volume-weighted average hop count.
	AvgHops float64 `json:"avgHops"`
	// Links counts the implementation links of the glued architecture.
	Links int `json:"links"`
	// Matches and RemainderEdges summarize the decomposition.
	Matches        int `json:"matches"`
	RemainderEdges int `json:"remainderEdges"`
	// Warm reports whether the point's solve was seeded with the
	// previous point's cost (false only for a cold first solve).
	Warm bool `json:"warm"`
	// MeasuredLatency is the simulated zero-load average packet
	// latency in cycles (present only under Options.Validate).
	MeasuredLatency float64 `json:"measuredLatency,omitempty"`

	// Result and Stats carry the full synthesis output and its solver
	// statistics for in-process callers; they are not part of the wire
	// form.
	Result *repro.Result `json:"-"`
	Stats  core.Stats    `json:"-"`
}

// GridPoint records one ε-grid solve, emitted or not — the sweep's
// accounting trail. It is not part of the canonical wire form.
type GridPoint struct {
	Epsilon  float64
	Feasible bool
	// Cost/AvgHops are the constrained optimum (feasible points only).
	// On a dominated warm point — the exclusive seed found no strict
	// improvement — they carry the previous point's solution, which
	// remains the optimum witness at this ε.
	Cost    float64
	AvgHops float64
	// Emitted reports whether the solve produced a new frontier point
	// (strictly cheaper than every tighter-ε solve).
	Emitted bool
	// Warm reports whether the solve was seeded from its predecessor.
	Warm bool
	// NodesExplored and Elapsed are the solve's search effort —
	// including, for infeasible grid points, the branch-and-bound work
	// of the infeasibility proof (carried by repro.InfeasibleError).
	NodesExplored int
	Elapsed       time.Duration
}

// Result is a complete frontier enumeration.
type Result struct {
	// Points are the non-dominated frontier points in ascending-ε
	// (descending-cost) order.
	Points []Point
	// Grid records every ε solve, including dominated and infeasible
	// ones.
	Grid []GridPoint
	// Anchor is the unconstrained solve that fixed the grid's upper
	// endpoint L0.
	Anchor *repro.Result
	// Elapsed is the wall-clock time of the whole sweep.
	Elapsed time.Duration
}

// Summary is the canonical trailing record of a frontier stream.
type Summary struct {
	// Points counts the emitted non-dominated points.
	Points int `json:"points"`
	// Grid counts the ε solves performed (anchor included).
	Grid int `json:"grid"`
	// Infeasible counts grid points with no feasible decomposition.
	Infeasible int `json:"infeasible"`
	// AnchorCost/AnchorAvgHops locate the unconstrained optimum.
	AnchorCost    float64 `json:"anchorCost"`
	AnchorAvgHops float64 `json:"anchorAvgHops"`
}

// Summary derives the canonical summary record.
func (r *Result) Summary() Summary {
	s := Summary{Points: len(r.Points), Grid: len(r.Grid)}
	for _, g := range r.Grid {
		if !g.Feasible {
			s.Infeasible++
		}
	}
	if r.Anchor != nil {
		s.AnchorCost = r.Anchor.Decomposition.Cost
		s.AnchorAvgHops = r.Anchor.Decomposition.AvgHops
	}
	return s
}

// MarshalPointLine renders one frontier point as its canonical NDJSON
// line (trailing newline included). The service's streaming path and
// EncodeNDJSON share this helper so streamed chunks concatenate to
// exactly the stored canonical document.
func MarshalPointLine(p Point) []byte {
	b, err := json.Marshal(p)
	if err != nil {
		// Point has no unmarshalable fields; keep the streaming path
		// infallible.
		panic(fmt.Sprintf("frontier: marshal point: %v", err))
	}
	return append(b, '\n')
}

// MarshalSummaryLine renders the canonical trailing summary line of a
// frontier stream.
func MarshalSummaryLine(s Summary) []byte {
	b, err := json.Marshal(struct {
		Summary Summary `json:"summary"`
	}{s})
	if err != nil {
		panic(fmt.Sprintf("frontier: marshal summary: %v", err))
	}
	return append(b, '\n')
}

// EncodeNDJSON writes the canonical NDJSON form of the enumeration: one
// line per non-dominated point followed by one summary line. The bytes
// are identical for a fixed problem at every parallelism setting.
func (r *Result) EncodeNDJSON(w io.Writer) error {
	var buf bytes.Buffer
	for _, p := range r.Points {
		buf.Write(MarshalPointLine(p))
	}
	buf.Write(MarshalSummaryLine(r.Summary()))
	_, err := w.Write(buf.Bytes())
	return err
}

// Enumerate computes the Pareto frontier of synthesis cost versus
// volume-weighted average hop latency for the given application graph.
//
// The sweep solves the unconstrained problem once (the anchor, cost E0 /
// latency L0), lays a uniform ε grid of Options.Points values across
// [1, L0], and re-solves under MaxLatency = ε for each, ascending, with
// each solve warm-started from its predecessor's cost. A grid solve is emitted as a frontier point
// iff it is strictly cheaper than every tighter solve before it; the
// final grid point (ε = L0) always reproduces the anchor, so the
// frontier is anchored at the unconstrained optimum.
//
// Cancellation: when ctx ends mid-sweep, Enumerate returns the partial
// Result accumulated so far together with the context's error.
func Enumerate(ctx context.Context, acg *repro.Graph, opts Options) (*Result, error) {
	if acg == nil {
		return nil, fmt.Errorf("frontier: nil ACG")
	}
	k := opts.Points
	if k == 0 {
		k = DefaultPoints
	}
	if k < 1 {
		return nil, fmt.Errorf("frontier: points = %d", k)
	}

	base := opts.Synth
	base.MaxLatency, base.InitialBound = 0, 0

	start := time.Now()
	res := &Result{}
	anchor, err := repro.SynthesizeContext(ctx, acg, base)
	if err != nil {
		return nil, fmt.Errorf("frontier: anchor solve: %w", err)
	}
	res.Anchor = anchor
	L0 := anchor.Decomposition.AvgHops

	emit := func(p Point) {
		p.Index = len(res.Points)
		res.Points = append(res.Points, p)
		if opts.Emit != nil {
			opts.Emit(p)
		}
	}

	if k == 1 || L0 <= 1 {
		// Degenerate frontier: with a single grid point, or when the
		// cost optimum is already single-hop everywhere (L0 = 1, so
		// no cheaper-but-slower trade exists in the model), the
		// anchor is the whole frontier.
		p := pointOf(L0, anchor, false)
		if opts.Validate {
			if p.MeasuredLatency, err = measure(ctx, anchor, 0); err != nil {
				return res, err
			}
		}
		emit(p)
		res.Grid = append(res.Grid, GridPoint{
			Epsilon: L0, Feasible: true,
			Cost: anchor.Decomposition.Cost, AvgHops: L0,
			Emitted: true, NodesExplored: anchor.Stats.NodesExplored,
			Elapsed: anchor.Stats.Elapsed,
		})
		res.Elapsed = time.Since(start)
		return res, nil
	}

	prevCost, prevHops := 0.0, 0.0
	prevEps := math.Inf(-1)
	for i := 0; i < k; i++ {
		if err := ctx.Err(); err != nil {
			res.Elapsed = time.Since(start)
			return res, err
		}
		eps := 1 + (L0-1)*float64(i)/float64(k-1)
		if i == k-1 {
			eps = L0 // exact, so the last solve reproduces the anchor
		}
		if eps == prevEps {
			continue // duplicate grid value on a near-flat span
		}
		prevEps = eps

		o := base
		o.MaxLatency = eps * latencySlack
		o.InitialBound = prevCost
		warm := prevCost > 0
		solveStart := time.Now()
		pres, err := repro.SynthesizeContext(ctx, acg, o)
		gp := GridPoint{Epsilon: eps, Warm: warm, Elapsed: time.Since(solveStart)}
		if err != nil {
			if ctx.Err() != nil {
				res.Grid = append(res.Grid, gp)
				res.Elapsed = time.Since(start)
				return res, ctx.Err()
			}
			if errors.Is(err, repro.ErrInfeasible) {
				// The infeasibility proof cost real search effort;
				// surface it instead of the historical hardcoded 0.
				var inf *repro.InfeasibleError
				if errors.As(err, &inf) {
					gp.NodesExplored = inf.Stats.NodesExplored
				}
				if warm {
					// The exclusive warm bound found no strict
					// improvement: this ε is dominated by the previous
					// point, whose solution (feasible here too) stays
					// the constrained optimum. Record it as the
					// witness and keep the seed.
					gp.Feasible = true
					gp.Cost, gp.AvgHops = prevCost, prevHops
				}
				// Otherwise ε is below the tightest achievable average
				// hop count — keep sweeping, looser ceilings succeed.
				res.Grid = append(res.Grid, gp)
				continue
			}
			res.Elapsed = time.Since(start)
			return res, fmt.Errorf("frontier: solve at eps=%v: %w", eps, err)
		}
		if pres.Stats.TimedOut || pres.Stats.Canceled {
			// A truncated search may return a non-optimal incumbent;
			// emitting it would make the stream timing-dependent.
			// Record the attempt and move on without seeding from it.
			res.Grid = append(res.Grid, gp)
			continue
		}
		// A successful warm solve is a strict improvement over the seed
		// by construction (the exclusive bound admits nothing else), and
		// the cold first solve trivially improves on "nothing" — so
		// every solver success is a new non-dominated point.
		gp.Feasible = true
		gp.Cost = pres.Decomposition.Cost
		gp.AvgHops = pres.Decomposition.AvgHops
		gp.NodesExplored = pres.Stats.NodesExplored
		p := pointOf(eps, pres, warm)
		if opts.Validate {
			if p.MeasuredLatency, err = measure(ctx, pres, len(res.Points)); err != nil {
				res.Grid = append(res.Grid, gp)
				res.Elapsed = time.Since(start)
				return res, err
			}
		}
		emit(p)
		gp.Emitted = true
		res.Grid = append(res.Grid, gp)
		prevCost, prevHops = pres.Decomposition.Cost, pres.Decomposition.AvgHops
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// pointOf assembles a frontier point from a synthesis result. Index is
// assigned at emission.
func pointOf(eps float64, r *repro.Result, warm bool) Point {
	return Point{
		Epsilon:        eps,
		Cost:           r.Decomposition.Cost,
		AvgHops:        r.Decomposition.AvgHops,
		Links:          r.Architecture.LinkCount(),
		Matches:        len(r.Decomposition.Matches),
		RemainderEdges: r.Decomposition.Remainder.EdgeCount(),
		Warm:           warm,
		Result:         r,
		Stats:          r.Stats,
	}
}

// The zero-load validation setup: 64-bit packets at 0.005 packets per
// node per cycle, low enough to stay contention-free on every
// architecture the sweep can produce, measured for 4000 cycles after a
// 1000-cycle warmup. Point i simulates under noc.PointSeed(validateSeed, i).
const (
	validateBits    = 64
	validateRate    = 0.005
	validateWarmup  = 1000
	validateMeasure = 4000
	validateSeed    = 1
)

// measure simulates one point's architecture under uniform traffic at a
// near-zero rate through the batch engine and returns the measured
// average packet latency in cycles. The router model is
// noc.DefaultConfig with NumVCs raised to the point's VC assignment when
// needed. The per-point seed makes the measurement deterministic, so the
// wire form stays canonical.
func measure(ctx context.Context, r *repro.Result, index int) (float64, error) {
	ct, err := r.CompiledRouting()
	if err != nil {
		return 0, err
	}
	cfg := noc.DefaultConfig()
	if n := r.VCs.NumVCs; n > cfg.NumVCs {
		cfg.NumVCs = n
	}
	pat, err := noc.UniformPattern(len(r.Architecture.Nodes()))
	if err != nil {
		return 0, err
	}
	b := &noc.Batch{
		Archs: []noc.BatchArch{{Cfg: cfg, Arch: r.Architecture, Table: ct}},
		Points: []noc.BatchPoint{{
			Pattern:       pat,
			Bits:          validateBits,
			Rate:          validateRate,
			WarmupCycles:  validateWarmup,
			MeasureCycles: validateMeasure,
			Seed:          noc.PointSeed(validateSeed, index),
		}},
		Parallelism: 1,
	}
	pts, err := b.Run(ctx)
	if err != nil {
		return 0, err
	}
	return pts[0].AvgLatency, nil
}
