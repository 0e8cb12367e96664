package noc

// Differential test of switch arbitration. pick finds an output's
// requesters through the per-output request count and lane XOR; the
// oracle below is the full input scan the kernel ran before those
// existed, kept verbatim. Networks step under saturating load, and every
// arbitration the kernel performs first asserts that both choose the
// same input (slot, vc).

import (
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"testing"
)

// fullScanPick is the arbitration choice of router i's output port at
// outSlot as a full scan makes it: the wormhole fast path for a locked
// output, else every input port × VC in portOrder order, collecting the
// head flits that request the output and have a downstream credit, then
// the round-robin pointer's entry among them.
func fullScanPick(n *Network, i, outSlot int32) (slot, vc int32, ok bool) {
	base := n.portOff[i]
	g := base + outSlot
	V := int32(n.cfg.NumVCs)
	want := int16(outSlot)
	local := n.outLocal[g]
	if lk := n.outLocked[g]; lk >= 0 {
		slot, vc := lk/V, lk%V
		lane := (base+slot)*V + vc
		if n.headWant[lane] != want {
			return 0, 0, false
		}
		if !local && n.credits[g*V+int32(n.headNextVC[lane])] <= 0 {
			return 0, 0, false
		}
		return slot, vc, true
	}
	var cands []int32
	for _, slot := range n.portOrder[base:n.portOff[i+1]] {
		laneBase := (base + slot) * V
		for vc := int32(0); vc < V; vc++ {
			if n.headWant[laneBase+vc] != want {
				continue
			}
			if !local && n.credits[g*V+int32(n.headNextVC[laneBase+vc])] <= 0 {
				continue
			}
			cands = append(cands, slot*V+vc)
		}
	}
	if len(cands) == 0 {
		return 0, 0, false
	}
	key := cands[n.outRR[g]%len(cands)]
	return key / V, key % V, true
}

// pickTally counts the arbitrations a checked run compared, by the path
// pick takes.
type pickTally struct{ locked, single, multi, moved int }

// stepChecked is Step with switch allocation unrolled: it walks the
// active routers and their requested outputs exactly as switchAllocation
// does and, before each arbitrate, fails the test unless pick and the
// full-scan oracle agree.
func stepChecked(t *testing.T, n *Network, tally *pickTally) {
	t.Helper()
	n.cycle++
	if n.faultIdx < len(n.faultQueue) && n.faultQueue[n.faultIdx].Cycle <= n.cycle {
		n.fireFaults()
	}
	n.deliverArrivals()
	n.injectFromNIs()
	left := n.nActive
	for w := 0; left > 0; w++ {
		word := n.activeBits[w]
		left -= bits.OnesCount64(word)
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			idx := int32(w<<6 | b)
			base := n.portOff[idx]
			for _, slot := range n.portOrder[base:n.portOff[idx+1]] {
				g := base + slot
				if n.wantCnt[g] == 0 {
					continue
				}
				switch {
				case n.outLocked[g] >= 0:
					tally.locked++
				case n.wantCnt[g] == 1:
					tally.single++
				default:
					tally.multi++
				}
				ps, pv, pok := n.pick(idx, slot)
				os, ov, ook := fullScanPick(n, idx, slot)
				if ps != os || pv != ov || pok != ook {
					t.Fatalf("cycle %d router %d output %d: pick (%d,%d,%v), full scan (%d,%d,%v)",
						n.cycle, idx, slot, ps, pv, pok, os, ov, ook)
				}
				if pok {
					tally.moved++
				}
				n.arbitrate(idx, slot)
			}
			if n.bufFlits[idx] == 0 {
				n.activeBits[w] &^= 1 << b
				n.nActive--
			}
		}
	}
}

// runPickDifferential drives a checked network and a twin stepped by
// Step through the same trace for a fixed number of cycles, then
// requires equal statistics, so the unrolled walk cannot drift from
// switchAllocation unnoticed.
func runPickDifferential(t *testing.T, checked, twin *Network, trace Trace, cycles int64) pickTally {
	t.Helper()
	var tally pickTally
	i := 0
	for checked.Cycle() < cycles {
		for i < len(trace) && trace[i].Cycle <= checked.Cycle() {
			ev := trace[i]
			for _, n := range []*Network{checked, twin} {
				if _, err := n.Inject(ev.Src, ev.Dst, ev.Bits, ev.Tag); err != nil && !errors.Is(err, ErrRouteFaulted) {
					t.Fatalf("inject event %d: %v", i, err)
				}
			}
			i++
		}
		stepChecked(t, checked, &tally)
		twin.Step()
	}
	auditNetwork(t, checked, fmt.Sprintf("cycle %d", checked.Cycle()))
	if a, b := checked.Stats(), twin.Stats(); !reflect.DeepEqual(a, b) {
		t.Fatalf("checked run diverged from Step: %+v vs %+v", a, b)
	}
	return tally
}

// TestPickMatchesFullScan steps BA 64/1k networks and a mesh under
// saturating uniform and hotspot load, at 1, 2 and 4 VCs and 1-, 2- and
// 4-flit buffers (adaptive routing too where there are VCs to spread
// over), and checks every arbitration against the full scan.
func TestPickMatchesFullScan(t *testing.T) {
	archs := []struct {
		name   string
		spec   SimArch
		cycles int64
		rate   float64
	}{
		{"ba64", SimArch{BA: "64:2:3"}, 250, 0.3},
		{"ba1k", SimArch{BA: "1000:2:7"}, 80, 0.2},
		{"mesh6x6", SimArch{Mesh: "6x6"}, 300, 0.3},
	}
	if testing.Short() {
		archs = archs[:1]
	}
	for _, a := range archs {
		b, err := BuildBatch(&SimRequest{
			Archs:  []SimArch{a.spec},
			Points: []SimPoint{{Pattern: "uniform", Bits: 96, Rate: 0.1, MeasureCycles: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		arch, table := b.Archs[0].Arch, b.Archs[0].Table
		nodes := len(arch.Nodes())
		for _, patSpec := range []string{"uniform", "hotspot:0,1:0.6"} {
			pat, err := NewPattern(patSpec, nodes)
			if err != nil {
				t.Fatal(err)
			}
			for _, vcs := range []int{1, 2, 4} {
				for _, buf := range []int{1, 2, 4} {
					modes := []RoutingMode{RoutingOblivious}
					if vcs >= 2 && nodes <= 64 {
						modes = append(modes, RoutingAdaptive)
					}
					for _, mode := range modes {
						name := fmt.Sprintf("%s/%s/vc=%d/buf=%d/%s", a.name, patSpec, vcs, buf, mode)
						t.Run(name, func(t *testing.T) {
							cfg := DefaultConfig()
							cfg.NumVCs, cfg.BufferFlits = vcs, buf
							var nets [2]*Network
							for k := range nets {
								var err error
								if nets[k], err = NewCompiled(cfg, arch, table); err != nil {
									t.Fatal(err)
								}
								if err := nets[k].SetRouting(mode); err != nil {
									t.Fatal(err)
								}
							}
							trace, err := GenerateTrace(pat, TrafficConfig{
								Nodes: nets[0].Nodes(), Bits: 96, Rate: a.rate, Seed: 11,
							}, a.cycles)
							if err != nil {
								t.Fatal(err)
							}
							tally := runPickDifferential(t, nets[0], nets[1], trace, a.cycles)
							if tally.locked == 0 || tally.single == 0 || tally.multi == 0 || tally.moved == 0 {
								t.Fatalf("arbitration paths not all exercised: %+v", tally)
							}
						})
					}
				}
			}
		}
	}
}

// TestPickMatchesFullScanAcrossPurge runs the differential through
// ResetWithFaults with a router and a link failing mid-flight, so
// arbitration is checked on the request counters and lane XORs
// purgeFaulted rebuilds.
func TestPickMatchesFullScanAcrossPurge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumVCs = 2
	var nets [2]*Network
	for k := range nets {
		nets[k] = meshNet(t, 4, 4, cfg)
		fm := NewFaultMap().AddRouter(6, 20).AddLink(9, 10, 35)
		if err := nets[k].ResetWithFaults(fm); err != nil {
			t.Fatal(err)
		}
	}
	trace := UniformRandomTrace(nets[0].Nodes(), 300, 512, 0.25, 21)
	tally := runPickDifferential(t, nets[0], nets[1], trace, 400)
	if nets[0].Stats().Dropped == 0 {
		t.Fatal("mid-flight faults dropped nothing — the purge was not exercised")
	}
	if tally.multi == 0 || tally.single == 0 {
		t.Fatalf("arbitration paths not all exercised: %+v", tally)
	}
}
