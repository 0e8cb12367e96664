package noc

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/graph"
)

// Stats accumulates simulator measurements.
type Stats struct {
	// Injected and Delivered count packets.
	Injected  int64
	Delivered int64

	// Dropped counts injected packets purged mid-flight because a fault
	// cut their remaining route, so conservation reads Injected =
	// Delivered + Pending + Dropped. Blocked counts injections refused
	// because the route was already dead — those never enter Injected.
	// Both stay zero on fault-free networks.
	Dropped int64
	Blocked int64

	// PlanMisses counts injections whose route plan was absent from the
	// compiled table's demand set and had to be resolved through the
	// lazy per-pair compile cache (always zero on tables compiled over
	// every ordered pair). A high count relative to Injected means the
	// pattern's declared demand underestimates its support.
	PlanMisses int64

	// DeliveredBits counts payload bits of delivered packets.
	DeliveredBits int64

	// Latency aggregates per-packet in-network latencies (cycles).
	LatencySum int64
	LatencyMax int64
	LatencyMin int64

	// SwitchTraversals counts flits through each router's crossbar.
	SwitchTraversals map[graph.NodeID]int64
	// LinkTraversals counts flits over each directed link (from, to).
	LinkTraversals map[[2]graph.NodeID]int64

	// ByTag aggregates per-tag delivery counts and latencies, letting
	// applications break results down by message class (the AES driver
	// tags packets with their round and kind).
	ByTag map[string]TagStats
}

// TagStats aggregates deliveries sharing one tag.
type TagStats struct {
	Delivered  int64
	LatencySum int64
}

// AvgLatency returns the tag's mean latency in cycles.
func (t TagStats) AvgLatency() float64 {
	if t.Delivered == 0 {
		return 0
	}
	return float64(t.LatencySum) / float64(t.Delivered)
}

func newStats() Stats {
	return Stats{
		LatencyMin:       1<<63 - 1,
		SwitchTraversals: make(map[graph.NodeID]int64),
		LinkTraversals:   make(map[[2]graph.NodeID]int64),
		ByTag:            make(map[string]TagStats),
	}
}

// reset clears the accumulator in place, retaining map storage — the
// allocation-free form of newStats the simulator's Reset/ResetStats hot
// paths use between measurement windows.
func (s *Stats) reset() {
	clear(s.SwitchTraversals)
	clear(s.LinkTraversals)
	clear(s.ByTag)
	s.Injected, s.Delivered, s.DeliveredBits = 0, 0, 0
	s.Dropped, s.Blocked, s.PlanMisses = 0, 0, 0
	s.LatencySum, s.LatencyMax = 0, 0
	s.LatencyMin = 1<<63 - 1
}

func (s *Stats) recordDelivery(p *Packet) {
	s.Delivered++
	s.DeliveredBits += int64(p.Bits)
	l := p.Latency()
	s.LatencySum += l
	if l > s.LatencyMax {
		s.LatencyMax = l
	}
	if l < s.LatencyMin {
		s.LatencyMin = l
	}
	if p.Tag != "" {
		ts := s.ByTag[p.Tag]
		ts.Delivered++
		ts.LatencySum += l
		s.ByTag[p.Tag] = ts
	}
}

// MinLatency returns the smallest delivered-packet latency in cycles, 0
// when nothing was delivered. Prefer this over reading the LatencyMin
// field: before the first delivery the field holds the max-int64
// accumulator sentinel (snapshots normalize it away, but live Stats
// values expose it).
func (s Stats) MinLatency() int64 {
	if s.Delivered == 0 {
		return 0
	}
	return s.LatencyMin
}

// AvgLatency returns the mean packet latency in cycles (0 if nothing was
// delivered).
func (s Stats) AvgLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Delivered)
}

// ThroughputMbps converts delivered bits over elapsed cycles into Mbps at
// the given clock.
func (s Stats) ThroughputMbps(cycles int64, clockMHz float64) float64 {
	if cycles == 0 {
		return 0
	}
	bitsPerCycle := float64(s.DeliveredBits) / float64(cycles)
	return bitsPerCycle * clockMHz // bits/cycle * Mcycles/s = Mbit/s
}

// TotalSwitchTraversals sums flit crossbar traversals over all routers.
func (s Stats) TotalSwitchTraversals() int64 {
	var t int64
	for _, v := range s.SwitchTraversals {
		t += v
	}
	return t
}

// TotalLinkTraversals sums flit link traversals over all directed links.
func (s Stats) TotalLinkTraversals() int64 {
	var t int64
	for _, v := range s.LinkTraversals {
		t += v
	}
	return t
}

// snapshot deep-copies the maps so callers cannot alias live state, and
// normalizes the LatencyMin accumulator sentinel so a zero-delivery
// snapshot reports 0 (not 1<<63-1) through field reads and JSON dumps.
func (s Stats) snapshot() Stats {
	out := s
	out.LatencyMin = s.MinLatency()
	out.SwitchTraversals = make(map[graph.NodeID]int64, len(s.SwitchTraversals))
	for k, v := range s.SwitchTraversals {
		out.SwitchTraversals[k] = v
	}
	out.LinkTraversals = make(map[[2]graph.NodeID]int64, len(s.LinkTraversals))
	for k, v := range s.LinkTraversals {
		out.LinkTraversals[k] = v
	}
	out.ByTag = make(map[string]TagStats, len(s.ByTag))
	for k, v := range s.ByTag {
		out.ByTag[k] = v
	}
	return out
}

// statsJSON is the one-way wire form of Stats: the array-keyed link map
// becomes "from->to" string keys (JSON objects cannot key on arrays) and
// LatencyMin is normalized through MinLatency so a zero-delivery dump
// reports 0 rather than the accumulator sentinel.
type statsJSON struct {
	Injected         int64               `json:"injected"`
	Delivered        int64               `json:"delivered"`
	Dropped          int64               `json:"dropped,omitempty"`
	Blocked          int64               `json:"blocked,omitempty"`
	PlanMisses       int64               `json:"planMisses,omitempty"`
	DeliveredBits    int64               `json:"deliveredBits"`
	LatencySum       int64               `json:"latencySum"`
	LatencyMax       int64               `json:"latencyMax"`
	LatencyMin       int64               `json:"latencyMin"`
	SwitchTraversals map[string]int64    `json:"switchTraversals,omitempty"`
	SwitchCompact    *CompactDist        `json:"switchTraversalsCompact,omitempty"`
	LinkTraversals   map[string]int64    `json:"linkTraversals,omitempty"`
	LinkCompact      *CompactDist        `json:"linkTraversalsCompact,omitempty"`
	ByTag            map[string]TagStats `json:"byTag,omitempty"`
}

// MarshalJSON renders the statistics as JSON (deterministically: Go
// sorts string map keys), with every per-element map in full.
func (s Stats) MarshalJSON() ([]byte, error) {
	return s.encodeJSON(math.MaxInt)
}

// compactLinkThreshold is the per-element map size above which
// size-aware consumers (sweep/batch output, the simulate endpoint)
// switch from the full "a->b" maps to the aggregated CompactDist form:
// past a few hundred routers the per-link map dominates the payload at
// megabytes per point while carrying little per-reader value.
const compactLinkThreshold = 256

// CompactDist is the aggregated view of a per-element traversal map:
// the element count plus the min/mean/max/total of the counter values.
type CompactDist struct {
	Count int     `json:"count"`
	Min   int64   `json:"min"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	Total int64   `json:"total"`
}

// compactDist aggregates counter values (the map keys don't matter).
func compactDist(n int, vals func(func(int64))) *CompactDist {
	d := &CompactDist{Count: n, Min: 1<<63 - 1}
	vals(func(v int64) {
		d.Total += v
		if v < d.Min {
			d.Min = v
		}
		if v > d.Max {
			d.Max = v
		}
	})
	if n == 0 {
		d.Min = 0
	} else {
		d.Mean = float64(d.Total) / float64(n)
	}
	return d
}

// CompactJSON renders the statistics like MarshalJSON, except that any
// per-element traversal map with more than 256 entries is replaced by
// its CompactDist aggregate ("switchTraversalsCompact" /
// "linkTraversalsCompact"). Maps at or under the bound render in full,
// so small-network output is byte-identical to MarshalJSON.
func (s Stats) CompactJSON() ([]byte, error) {
	return s.encodeJSON(compactLinkThreshold)
}

// encodeJSON builds the wire form, aggregating any per-element map with
// more than maxPerElement entries.
func (s Stats) encodeJSON(maxPerElement int) ([]byte, error) {
	out := statsJSON{
		Injected:      s.Injected,
		Delivered:     s.Delivered,
		Dropped:       s.Dropped,
		Blocked:       s.Blocked,
		PlanMisses:    s.PlanMisses,
		DeliveredBits: s.DeliveredBits,
		LatencySum:    s.LatencySum,
		LatencyMax:    s.LatencyMax,
		LatencyMin:    s.MinLatency(),
		ByTag:         s.ByTag,
	}
	switch n := len(s.SwitchTraversals); {
	case n > maxPerElement:
		out.SwitchCompact = compactDist(n, func(add func(int64)) {
			for _, v := range s.SwitchTraversals {
				add(v)
			}
		})
	case n > 0:
		out.SwitchTraversals = make(map[string]int64, n)
		for k, v := range s.SwitchTraversals {
			out.SwitchTraversals[fmt.Sprintf("%d", k)] = v
		}
	}
	switch n := len(s.LinkTraversals); {
	case n > maxPerElement:
		out.LinkCompact = compactDist(n, func(add func(int64)) {
			for _, v := range s.LinkTraversals {
				add(v)
			}
		})
	case n > 0:
		out.LinkTraversals = make(map[string]int64, n)
		for k, v := range s.LinkTraversals {
			out.LinkTraversals[fmt.Sprintf("%d->%d", k[0], k[1])] = v
		}
	}
	return json.Marshal(out)
}

// Describe renders the statistics deterministically.
func (s Stats) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "packets: %d injected, %d delivered (%d bits)\n",
		s.Injected, s.Delivered, s.DeliveredBits)
	if s.Dropped > 0 || s.Blocked > 0 {
		fmt.Fprintf(&b, "faults: %d dropped in flight, %d blocked at injection\n",
			s.Dropped, s.Blocked)
	}
	if s.PlanMisses > 0 {
		fmt.Fprintf(&b, "routing: %d plans resolved through the lazy compile cache\n", s.PlanMisses)
	}
	if s.Delivered > 0 {
		fmt.Fprintf(&b, "latency: avg %.2f, min %d, max %d cycles\n",
			s.AvgLatency(), s.LatencyMin, s.LatencyMax)
	}
	fmt.Fprintf(&b, "activity: %d switch traversals, %d link traversals\n",
		s.TotalSwitchTraversals(), s.TotalLinkTraversals())
	keys := make([][2]graph.NodeID, 0, len(s.LinkTraversals))
	for k := range s.LinkTraversals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "  link %d->%d: %d flits\n", k[0], k[1], s.LinkTraversals[k])
	}
	return b.String()
}
