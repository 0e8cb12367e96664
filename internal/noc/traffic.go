package noc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// TrafficEvent is one scheduled injection.
type TrafficEvent struct {
	Cycle int64
	Src   graph.NodeID
	Dst   graph.NodeID
	Bits  int
	Tag   string
}

// Trace is a time-ordered injection schedule.
type Trace []TrafficEvent

// ReplayContext drives the network with the trace, injecting events as
// their cycles come due, then drains the network. It returns an error if
// the network fails to drain within drainLimit extra cycles or an
// injection is invalid. The simulation checks ctx between cycles (every
// ctxCheckCycles, so the per-cycle hot path stays select-free) and
// returns ctx.Err() as soon as it is done — the hook command-line drivers
// use for Ctrl-C.
func (n *Network) ReplayContext(ctx context.Context, trace Trace, drainLimit int64) error {
	return n.replay(ctx, trace, drainLimit, func(ev TrafficEvent) error {
		_, err := n.Inject(ev.Src, ev.Dst, ev.Bits, ev.Tag)
		return err
	})
}

// replay is the inject/step/poll loop behind ReplayContext and
// ReplayWith: each cycle it hands every event now due to inject, steps
// the network and, every ctxCheckMask+1 cycles, polls ctx; then it
// drains. Events a fault blocks are part of the scenario (counted under
// Stats.Blocked by the network), not a replay failure, so an inject
// error wrapping ErrRouteFaulted is skipped.
func (n *Network) replay(ctx context.Context, trace Trace, drainLimit int64, inject func(TrafficEvent) error) error {
	i := 0
	for i < len(trace) {
		for i < len(trace) && trace[i].Cycle <= n.cycle {
			if err := inject(trace[i]); err != nil && !errors.Is(err, ErrRouteFaulted) {
				return fmt.Errorf("noc: replay event %d: %w", i, err)
			}
			i++
		}
		n.Step()
		if n.cycle&ctxCheckMask == 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
	}
	if !n.runUntilDrainedContext(ctx, drainLimit) {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fmt.Errorf("noc: network failed to drain %d packets within %d cycles",
			n.Pending(), drainLimit)
	}
	return nil
}

// ctxCheckMask throttles context polls to every 1024 cycles; a canceled
// simulation stops within microseconds without a select per cycle.
const ctxCheckMask = 0x3ff

// RunUntilDrained steps until no packets are pending or maxCycles elapse,
// returning whether the network drained. A horizon that would overflow
// the cycle counter (e.g. math.MaxInt64) is clamped to "no limit" rather
// than wrapping negative and returning immediately.
func (n *Network) RunUntilDrained(maxCycles int64) bool {
	return n.runUntilDrainedContext(context.Background(), maxCycles)
}

// runUntilDrainedContext is RunUntilDrained that also stops, undrained,
// once ctx is done.
func (n *Network) runUntilDrainedContext(ctx context.Context, maxCycles int64) bool {
	limit := n.cycle + maxCycles
	if maxCycles > 0 && limit < n.cycle {
		limit = math.MaxInt64
	}
	for n.pending > 0 && n.cycle < limit {
		n.Step()
		if n.cycle&ctxCheckMask == 0 {
			select {
			case <-ctx.Done():
				return false
			default:
			}
		}
	}
	return n.pending == 0
}

// RouteChooser picks a route and per-position VC list for one traffic
// event — the plug-in point for oblivious, stochastic and adaptive
// strategies.
type RouteChooser func(ev TrafficEvent) (route []graph.NodeID, vcs []int, err error)

// ReplayWith drives the network with the trace like ReplayContext, but
// asks the chooser for each packet's route instead of the built-in
// routing table.
func (n *Network) ReplayWith(trace Trace, drainLimit int64, choose RouteChooser) error {
	return n.replay(context.Background(), trace, drainLimit, func(ev TrafficEvent) error {
		route, vcs, err := choose(ev)
		if err != nil {
			return err
		}
		_, err = n.InjectRouted(ev.Src, ev.Dst, ev.Bits, ev.Tag, route, vcs)
		return err
	})
}

// MaxTraceCycles bounds the schedule horizon a single generated trace
// may span. A degenerate injection rate (e.g. 1e-12 packets/node/cycle)
// would otherwise spin the cycle loop for ~count/rate iterations — weeks
// of wall time — before producing its packets. GenerateTrace rejects a
// longer horizon; Batch.Run (so Sweep) and SimRequest.Check (so
// BuildBatch) reject warmup+measure windows above it, and packets of
// more flits than it; callers computing their own horizons (cmd/nocsim)
// apply the same bound.
const MaxTraceCycles = int64(100_000_000)

// UniformRandomTrace generates count packets of the given size at the
// given injection rate (packets per node per cycle) with uniformly random
// sources and destinations. Deterministic for a fixed seed.
//
// It returns nil for degenerate inputs: fewer than two nodes, a
// nonpositive count, a nonpositive rate, or a rate so low that the
// schedule would span more than MaxTraceCycles (1e8) cycles.
func UniformRandomTrace(nodes []graph.NodeID, count, bits int, ratePerNodePerCycle float64, seed int64) Trace {
	if len(nodes) < 2 || count <= 0 || ratePerNodePerCycle <= 0 {
		return nil
	}
	if float64(count)/(ratePerNodePerCycle*float64(len(nodes))) > float64(MaxTraceCycles) {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var trace Trace
	cycle := int64(0)
	perCycle := ratePerNodePerCycle * float64(len(nodes))
	acc := 0.0
	for len(trace) < count {
		acc += perCycle
		for acc >= 1 && len(trace) < count {
			acc--
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			for dst == src {
				dst = nodes[rng.Intn(len(nodes))]
			}
			trace = append(trace, TrafficEvent{Cycle: cycle, Src: src, Dst: dst, Bits: bits})
		}
		cycle++
	}
	return trace
}
