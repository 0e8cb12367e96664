package noc

// Network-side fault mechanics: installing a FaultMap, striking
// scheduled failures mid-run, and purging the traffic a new fault
// strands. The fault model is whole-packet drop with full state repair:
// when an element fails, every packet whose remaining route crosses it
// is removed from the network — source queue, input rings, timing wheel
// — and the incremental kernel state (head mirrors, request counters,
// wormhole locks, credits, activity worklists) is rebuilt so the
// surviving traffic continues under the exact invariants the fault-free
// kernel maintains. Dropped packets count under Stats.Dropped;
// injections refused because their route is already dead count under
// Stats.Blocked.

// ResetWithFaults rewinds the network like Reset and then installs the
// fault map: static failures (cycle <= 0) are applied immediately to
// the empty network, scheduled ones are queued and strike at the start
// of their cycle. A nil or empty map is exactly Reset — and a later
// plain Reset clears every installed fault, restoring the pristine
// topology (see Reset). The map is validated against the architecture
// before any state is touched.
func (n *Network) ResetWithFaults(fm *FaultMap) error {
	if err := fm.Validate(n.arch); err != nil {
		return err
	}
	n.Reset()
	if fm.Len() == 0 {
		return nil
	}
	if n.linkDown == nil {
		n.linkDown = make([]bool, n.frz.EdgeCount())
		n.routerDown = make([]bool, n.frz.NodeCount())
	}
	for _, e := range fm.Events() { // sorted: statics first, then by cycle
		if e.Cycle <= 0 {
			n.applyFault(e)
		} else {
			n.faultQueue = append(n.faultQueue, e)
		}
	}
	return nil
}

// Faulted reports whether any fault is currently applied to the
// topology (scheduled-but-not-yet-struck failures do not count).
func (n *Network) Faulted() bool { return n.faulted }

// FaultsDown returns the number of failed directed channels and failed
// routers currently applied — a router failure also fails its incident
// channels.
func (n *Network) FaultsDown() (links, routers int) {
	for _, d := range n.linkDown {
		if d {
			links++
		}
	}
	for _, d := range n.routerDown {
		if d {
			routers++
		}
	}
	return links, routers
}

// applyFault marks the event's element down. Validation happened in
// ResetWithFaults, so missing elements are silently impossible here.
func (n *Network) applyFault(e FaultEvent) {
	switch e.Kind {
	case FaultLink:
		ai, aok := n.frz.IndexOf(e.A)
		bi, bok := n.frz.IndexOf(e.B)
		if !aok || !bok {
			return
		}
		if eid, ok := n.frz.EdgeIndexBetween(ai, bi); ok {
			n.linkDown[eid] = true
		}
		if eid, ok := n.frz.EdgeIndexBetween(bi, ai); ok {
			n.linkDown[eid] = true
		}
	case FaultRouter:
		ri, ok := n.frz.IndexOf(e.Router)
		if !ok {
			return
		}
		n.routerDown[ri] = true
		start := n.frz.OutEdgeStart(ri)
		for k := range n.frz.Out(ri) {
			n.linkDown[start+k] = true
		}
		for _, eid := range n.frz.InEdgeIDs(ri) {
			n.linkDown[eid] = true
		}
	}
	n.faulted = true
	n.adaptDirty = true
}

// fireFaults applies every scheduled failure due at the current cycle,
// then purges the traffic the new faults strand. Called from Step
// before arrivals land, so nothing uses an element in the cycle its
// failure takes effect.
func (n *Network) fireFaults() {
	fired := false
	for n.faultIdx < len(n.faultQueue) && n.faultQueue[n.faultIdx].Cycle <= n.cycle {
		n.applyFault(n.faultQueue[n.faultIdx])
		n.faultIdx++
		fired = true
	}
	if fired {
		n.purgeFaulted()
	}
}

// planLive walks a compiled plan's output slots from the dense source
// index and reports whether every router and directed channel it
// crosses is still up. Only called on faulted networks (the arrays
// exist), off the fault-free hot path.
func (n *Network) planLive(si int, outSlot []int32) bool {
	cur := int32(si)
	for i := 0; ; i++ {
		if n.routerDown[cur] {
			return false
		}
		if i == len(outSlot)-1 {
			return true // final entry is the destination's ejection slot
		}
		if n.linkDown[n.frz.OutEdgeStart(int(cur))+int(outSlot[i])] {
			return false
		}
		cur = n.frz.Out(int(cur))[outSlot[i]]
	}
}

// routeDead reports whether packet p's remaining route — from hop
// `from` onward — crosses a failed element. A flit already in flight on
// a link when the link fails is considered across (it lands normally);
// the packet dies only if something at or beyond its landing hop is
// down.
func (n *Network) routeDead(p *Packet, from int) bool {
	cur, ok := n.frz.IndexOf(p.route[from])
	if !ok {
		return true
	}
	ci := int32(cur)
	for i := from; ; i++ {
		if n.routerDown[ci] {
			return true
		}
		if i == len(p.route)-1 {
			return false
		}
		if n.linkDown[n.frz.OutEdgeStart(int(ci))+int(p.outSlot[i])] {
			return true
		}
		ci = n.frz.Out(int(ci))[p.outSlot[i]]
	}
}

// noHop marks "no live flit found" in the purge's per-packet scan.
const noHop = int16(0x7fff)

// purgeFaulted removes every packet whose remaining route crosses a
// failed element and repairs the kernel's incremental state. The purge
// preserves FIFO order among surviving flits and recomputes exactly the
// quantities the kernel otherwise maintains incrementally:
//
//   - per-VC head mirrors (headWant/headNextVC) and output request
//     counters and lane XORs (wantCnt/wantXor) from the filtered rings;
//   - wormhole locks, released where the locking packet died
//     (outLockedPkt identifies it);
//   - credits from the invariant credits[vc] = BufferFlits − downstream
//     ring occupancy(vc) − in-flight wheel flits landing in that buffer;
//   - bufFlits, the active-router bitset and the source worklist.
//
// Packet conservation across the run becomes
// Injected = Delivered + Pending + Dropped.
func (n *Network) purgeFaulted() {
	V := int32(n.cfg.NumVCs)
	B := int32(n.cfg.BufferFlits)
	// Earliest hop any of each packet's flits still occupies: 0 while the
	// source NI is still feeding flits, else the minimum over its flits in
	// input rings (the hop they sit at) and wheel buckets (their landing
	// hop — the link behind them is already crossed).
	minHop := make([]int16, len(n.pktSlots))
	for i := range minHop {
		minHop[i] = noHop
	}
	for i, p := range n.pktSlots {
		if p != nil && p.injected < p.flits {
			minHop[i] = 0
		}
	}
	for lane := range n.ringN {
		base := int32(lane) * B
		head := n.ringHead[lane]
		for k := int32(0); k < n.ringN[lane]; k++ {
			f := &n.ringBuf[base+(head+k)%B]
			if f.hop < minHop[f.pktIdx] {
				minHop[f.pktIdx] = f.hop
			}
		}
	}
	for _, bucket := range n.wheel {
		for i := range bucket {
			f := &bucket[i].f
			if f.hop < minHop[f.pktIdx] {
				minHop[f.pktIdx] = f.hop
			}
		}
	}

	drop := make([]bool, len(n.pktSlots))
	any := false
	for idx := 1; idx < len(n.pktSlots); idx++ {
		p := n.pktSlots[idx]
		if p == nil || minHop[idx] == noHop {
			continue
		}
		if n.routeDead(p, int(minHop[idx])) {
			drop[idx] = true
			any = true
		}
	}
	if !any {
		return
	}

	// Source queues: drop dead packets, keep order.
	keepSrc := n.srcActive[:0]
	for _, i := range n.srcActive {
		q := &n.srcQueue[i]
		for k, m := 0, q.n; k < m; k++ {
			p := q.pop()
			if !drop[p.arenaIdx] {
				q.push(p)
			}
		}
		if q.n > 0 {
			keepSrc = append(keepSrc, i)
		} else {
			n.srcMark[i] = false
		}
	}
	n.srcActive = keepSrc

	// Input rings: filter dead flits preserving FIFO order, then rebuild
	// the head mirrors, request counters and active bits from scratch.
	var scratch []flit
	clear(n.wantCnt)
	clear(n.wantXor)
	clear(n.bufFlits)
	clear(n.activeBits)
	n.nActive = 0
	for ri := int32(0); ri < int32(n.frz.NodeCount()); ri++ {
		rBase := n.portOff[ri]
		total := int32(0)
		for gi := rBase; gi < n.portOff[ri+1]; gi++ {
			for vc := int32(0); vc < V; vc++ {
				lane := gi*V + vc
				base := lane * B
				scratch = scratch[:0]
				head := n.ringHead[lane]
				for k := int32(0); k < n.ringN[lane]; k++ {
					f := n.ringBuf[base+(head+k)%B]
					if !drop[f.pktIdx] {
						scratch = append(scratch, f)
					}
				}
				clear(n.ringBuf[base : base+B])
				n.ringHead[lane] = 0
				n.ringN[lane] = int32(len(scratch))
				copy(n.ringBuf[base:], scratch)
				if n.ringN[lane] > 0 {
					h := &n.ringBuf[base]
					n.headWant[lane] = h.want
					n.headNextVC[lane] = h.nextVC
					n.wantCnt[rBase+int32(h.want)]++
					n.wantXor[rBase+int32(h.want)] ^= lane
				} else {
					n.headWant[lane] = -1
					n.headNextVC[lane] = 0
				}
				total += n.ringN[lane]
			}
		}
		n.bufFlits[ri] = total
		if total > 0 {
			n.markActive(ri)
		}
	}

	// Timing wheel: filter dead in-flight flits, zeroing vacated slots so
	// no packet stays reachable through bucket backing arrays.
	for b := range n.wheel {
		bucket := n.wheel[b]
		keep := bucket[:0]
		for _, a := range bucket {
			if !drop[a.f.pktIdx] {
				keep = append(keep, a)
			}
		}
		for k := len(keep); k < len(bucket); k++ {
			bucket[k] = arrival{}
		}
		n.wheel[b] = keep
	}

	// Wormhole locks held by dead packets are released; surviving locks
	// are untouched (their packets' flits were not removed).
	for g := range n.outLocked {
		if n.outLocked[g] >= 0 && drop[n.outLockedPkt[g]] {
			n.outLocked[g] = -1
			n.outLockedPkt[g] = 0
		}
	}

	// Credits, from the invariant: refill to pristine, subtract the
	// surviving downstream ring occupancy and in-flight wheel flits.
	copy(n.credits, n.creditsInit)
	for gi := range n.peer {
		up := n.peer[gi]
		if up < 0 {
			continue
		}
		for vc := int32(0); vc < V; vc++ {
			n.credits[up*V+vc] -= n.ringN[int32(gi)*V+vc]
		}
	}
	for _, bucket := range n.wheel {
		for _, a := range bucket {
			if up := n.peer[a.port]; up >= 0 {
				n.credits[up*V+int32(a.f.vc)]--
			}
		}
	}

	// Release the dead packets' arena slots, in ascending slot order for
	// deterministic reuse.
	for idx := 1; idx < len(n.pktSlots); idx++ {
		if !drop[idx] {
			continue
		}
		p := n.pktSlots[idx]
		n.pktSlots[idx] = nil
		n.freeSlots = append(n.freeSlots, int32(idx))
		n.pending--
		n.stats.Dropped++
		if n.recycle {
			n.freePacket(p)
		}
	}
}
