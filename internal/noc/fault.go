package noc

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/topology"
)

// ErrRouteFaulted marks an injection refused because the packet's route
// crosses a failed link or router (oblivious mode), or because no live
// route exists at all (adaptive mode on a partitioned topology). Traffic
// drivers treat it as "source blocked by the fault", not a simulation
// error: ReplayContext, ReplayWith and the sweep harness skip the event
// and the network counts it under Stats.Blocked.
var ErrRouteFaulted = errors.New("noc: route crosses a faulted element")

// FaultKind distinguishes the failure modes of the fault model.
type FaultKind int

const (
	// FaultLink fails one bidirectional physical link (both directed
	// channels).
	FaultLink FaultKind = iota
	// FaultRouter fails a whole router: every incident link goes down and
	// the node can neither inject, forward, nor eject.
	FaultRouter
)

// FaultEvent is one failure. Cycle <= 0 means the fault is static —
// present from cycle zero — while a positive cycle schedules the failure
// to strike at the start of that simulation cycle (mid-run).
type FaultEvent struct {
	Cycle int64
	Kind  FaultKind
	// A, B are the link endpoints (canonicalized A < B) for FaultLink.
	A, B graph.NodeID
	// Router is the failed node for FaultRouter.
	Router graph.NodeID
}

// String renders the event in the ParseFaultMap grammar.
func (e FaultEvent) String() string {
	var b strings.Builder
	if e.Kind == FaultRouter {
		fmt.Fprintf(&b, "router:%d", e.Router)
	} else {
		fmt.Fprintf(&b, "link:%d-%d", e.A, e.B)
	}
	if e.Cycle > 0 {
		fmt.Fprintf(&b, "@%d", e.Cycle)
	}
	return b.String()
}

// FaultMap is a set of link/router failures: the static ones present
// from cycle zero plus any failures scheduled to strike mid-run. A map
// is applied to a network with Network.ResetWithFaults; the zero-value
// or nil map means a pristine network.
type FaultMap struct {
	events []FaultEvent
}

// NewFaultMap returns an empty fault map.
func NewFaultMap() *FaultMap { return &FaultMap{} }

// AddLink fails the link a-b at the given cycle (<= 0 = static).
func (m *FaultMap) AddLink(a, b graph.NodeID, cycle int64) *FaultMap {
	if a > b {
		a, b = b, a
	}
	if cycle < 0 {
		cycle = 0
	}
	m.events = append(m.events, FaultEvent{Cycle: cycle, Kind: FaultLink, A: a, B: b})
	return m
}

// AddRouter fails router r at the given cycle (<= 0 = static).
func (m *FaultMap) AddRouter(r graph.NodeID, cycle int64) *FaultMap {
	if cycle < 0 {
		cycle = 0
	}
	m.events = append(m.events, FaultEvent{Cycle: cycle, Kind: FaultRouter, Router: r})
	return m
}

// Len returns the number of failure events.
func (m *FaultMap) Len() int {
	if m == nil {
		return 0
	}
	return len(m.events)
}

// Events returns the failures sorted by (cycle, kind, ids) — the order
// the simulator applies them in.
func (m *FaultMap) Events() []FaultEvent {
	if m == nil {
		return nil
	}
	out := append([]FaultEvent(nil), m.events...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Kind == FaultRouter {
			return a.Router < b.Router
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	return out
}

// String renders the map in the canonical comma-separated spec form;
// ParseFaultMap(m.String()) round-trips to an equivalent map.
func (m *FaultMap) String() string {
	evs := m.Events()
	parts := make([]string, len(evs))
	for i, e := range evs {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// Validate checks every event against the architecture: link faults must
// name existing links, router faults existing nodes.
func (m *FaultMap) Validate(arch *topology.Architecture) error {
	if m == nil || arch == nil {
		return nil
	}
	nodes := make(map[graph.NodeID]bool)
	for _, id := range arch.Nodes() {
		nodes[id] = true
	}
	for _, e := range m.events {
		switch e.Kind {
		case FaultLink:
			if !arch.HasLink(e.A, e.B) {
				return fmt.Errorf("noc: fault %s names a link %s lacks", e, arch.Name)
			}
		case FaultRouter:
			if !nodes[e.Router] {
				return fmt.Errorf("noc: fault %s names a node %s lacks", e, arch.Name)
			}
		default:
			return fmt.Errorf("noc: fault kind %d unknown", e.Kind)
		}
	}
	return nil
}

// Down returns the links and routers failed by every event in the map
// (ignoring schedule cycles) — the final degraded state, the input to
// topology.Architecture.Masked.
func (m *FaultMap) Down() (links [][2]graph.NodeID, routers []graph.NodeID) {
	for _, e := range m.Events() {
		if e.Kind == FaultRouter {
			routers = append(routers, e.Router)
		} else {
			links = append(links, [2]graph.NodeID{e.A, e.B})
		}
	}
	return links, routers
}

// Masked returns the architecture with every fault in the map applied —
// the fully degraded topology, regardless of schedule cycles.
func (m *FaultMap) Masked(arch *topology.Architecture) *topology.Architecture {
	links, routers := m.Down()
	return arch.Masked(links, routers)
}

// ParseFaultMap parses the fault spec grammar used by the -faults flag:
//
//	spec  := item ("," item)*
//	item  := ("link:" A "-" B | "router:" N) ["@" cycle]
//
// where A, B, N are node ids and cycle is the positive simulation cycle
// the failure strikes at (omitted = static, present from cycle zero).
// Example: "link:1-2,link:5-9@2000,router:7@5000". The empty spec
// parses to an empty map.
func ParseFaultMap(spec string) (*FaultMap, error) {
	m := NewFaultMap()
	if strings.TrimSpace(spec) == "" {
		return m, nil
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			return nil, fmt.Errorf("noc: empty fault item in %q", spec)
		}
		var cycle int64
		if at := strings.IndexByte(item, '@'); at >= 0 {
			c, err := strconv.ParseInt(item[at+1:], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("noc: bad fault cycle in %q: %v", item, err)
			}
			if c <= 0 {
				return nil, fmt.Errorf("noc: fault cycle %d in %q not positive (omit @cycle for a static fault)", c, item)
			}
			cycle, item = c, item[:at]
		}
		kind, arg, ok := strings.Cut(item, ":")
		if !ok {
			return nil, fmt.Errorf("noc: fault item %q lacks a kind (want link:A-B or router:N)", item)
		}
		switch kind {
		case "link":
			as, bs, ok := strings.Cut(arg, "-")
			if !ok {
				return nil, fmt.Errorf("noc: link fault %q wants endpoints A-B", item)
			}
			a, err := strconv.ParseInt(strings.TrimSpace(as), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("noc: bad link endpoint in %q: %v", item, err)
			}
			b, err := strconv.ParseInt(strings.TrimSpace(bs), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("noc: bad link endpoint in %q: %v", item, err)
			}
			if a < 0 || b < 0 {
				// Also keeps String() parseable: a leading minus would
				// collide with the A-B separator.
				return nil, fmt.Errorf("noc: negative node id in %q", item)
			}
			if a == b {
				return nil, fmt.Errorf("noc: link fault %q is a self-loop", item)
			}
			m.AddLink(graph.NodeID(a), graph.NodeID(b), cycle)
		case "router":
			r, err := strconv.ParseInt(strings.TrimSpace(arg), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("noc: bad router id in %q: %v", item, err)
			}
			if r < 0 {
				return nil, fmt.Errorf("noc: negative node id in %q", item)
			}
			m.AddRouter(graph.NodeID(r), cycle)
		default:
			return nil, fmt.Errorf("noc: unknown fault kind %q in %q (want link or router)", kind, item)
		}
	}
	return m, nil
}

// RandomLinkFaults fails round(rate * links) randomly chosen links of
// the architecture, deterministically for a fixed seed, skipping any
// removal that would disconnect the surviving topology — the standard
// reliability-sweep fault model, where the network stays physically
// connected and the question is how routing copes. The achieved fault
// count can fall short of the target on sparse topologies (e.g. trees,
// where no link is removable); callers read it back via Len.
func RandomLinkFaults(arch *topology.Architecture, rate float64, seed int64) (*FaultMap, error) {
	if arch == nil {
		return nil, fmt.Errorf("noc: nil architecture")
	}
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("noc: fault rate %g outside [0, 1]", rate)
	}
	links := arch.Links()
	target := int(rate*float64(len(links)) + 0.5)
	m := NewFaultMap()
	if target == 0 {
		return m, nil
	}
	rng := rand.New(rand.NewSource(seed))
	var down [][2]graph.NodeID
	for _, i := range rng.Perm(len(links)) {
		if len(down) >= target {
			break
		}
		trial := append(down, links[i].Key())
		if !arch.Masked(trial, nil).Connected() {
			continue
		}
		down = trial
	}
	for _, k := range down {
		m.AddLink(k[0], k[1], 0)
	}
	return m, nil
}
