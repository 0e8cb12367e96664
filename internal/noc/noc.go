// Package noc is a cycle-level network-on-chip simulator: input-buffered
// wormhole routers with virtual channels, credit-based flow control, and
// deterministic round-robin arbitration.
//
// It substitutes for the paper's Virtex-2 FPGA prototype (Section 5.2).
// The quantities the paper measures — cycles per encrypted block, average
// packet latency, and switching activity (which Xilinx XPower integrates
// into power) — are architectural: a flit-accurate simulator measures the
// same quantities for the mesh and the customized topology under identical
// traffic, preserving the relative comparison the paper reports.
//
// Model summary:
//
//   - A packet of B bits becomes 1 head flit + ceil(B/FlitBits) payload
//     flits (the head carries routing state, as in the prototype).
//   - Routers have one input port per incident link plus a local injection
//     port; each input port holds NumVCs FIFO buffers of BufferFlits flits.
//   - Routing is table-driven (deterministic, destination-based); the
//     virtual channel of a packet on each hop is statically derived from
//     the routing layer's dateline assignment, which guarantees deadlock
//     freedom.
//   - Each output port moves at most one flit per cycle (crossbar and link
//     serialization); wormhole: an output locks to one packet from head to
//     tail. Credits return to the upstream router when a flit leaves an
//     input buffer.
//
// The kernel is allocation-free, activity-driven and laid out as struct
// of arrays:
//
//   - All per-port and per-(port, VC) state — ring cursors, head-of-line
//     mirrors, credit counters, wormhole locks, round-robin pointers,
//     request counters — lives in flat arrays indexed by a global port
//     number. Router i's ports occupy the contiguous range
//     portOff[i]..portOff[i+1] (one slot per neighbor in CSR order, the
//     local injection/ejection port last), so the Step loop walks dense
//     contiguous memory instead of chasing per-router port objects. The
//     layout makes NewCompiled and Reset a handful of bulk
//     allocations/clears, which is what lets 1k–10k-router topologies
//     build and reset in microseconds.
//   - Per-VC input FIFOs are fixed-capacity ring slices of one shared
//     backing array (capacity is BufferFlits, enforced by credits).
//   - Packets come from a pooled arena with freelist reuse (opt-in via
//     SetPacketRecycling), and Inject resolves routes through a
//     routing.CompiledTable — dense per-(src,dst) route/VC/out-slot plans
//     computed once per table — so steady-state injection performs no
//     route walks, slice copies or heap allocation.
//   - Flits in flight live on a timing wheel indexed by arrival cycle
//     (the link+pipeline delay is a config constant), so delivery costs
//     O(arrivals this cycle), not O(all flits in flight).
//   - Switch allocation walks an active-router worklist — only routers
//     with buffered flits arbitrate — so a cycle costs O(routers with
//     work), and an idle network steps in O(1).
//
// Network.Reset rewinds a built network to its cold post-construction
// state (cycle 0, empty buffers, full credits, zeroed statistics) without
// rebuilding the wiring, which is how the sweep harness and the batch
// engine's network pool reuse one network across many simulation points.
// All of this is behavior preserving: the golden tests pin simulated
// results byte for byte against the pre-kernel simulator.
package noc

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Config sets the microarchitectural parameters.
type Config struct {
	// FlitBits is the link width: bits moved per link per cycle.
	FlitBits int
	// BufferFlits is the per-input-VC FIFO depth.
	BufferFlits int
	// NumVCs is the number of virtual channels per input port. It must be
	// at least the routing VC assignment's requirement.
	NumVCs int
	// LinkCycles is the link traversal latency in cycles.
	LinkCycles int
	// RouterCycles is the router pipeline depth: cycles a flit spends in
	// a router before becoming eligible for switch allocation. FPGA-era
	// wormhole routers are typically 2-4 stages; 1 models an idealized
	// single-cycle router.
	RouterCycles int
	// ClockMHz converts cycles to time for throughput/power reporting.
	ClockMHz float64
}

// DefaultConfig mirrors a small FPGA-era router: 32-bit links, 4-flit
// buffers, a 3-stage router pipeline, 100 MHz clock.
func DefaultConfig() Config {
	return Config{FlitBits: 32, BufferFlits: 4, NumVCs: 1, LinkCycles: 1, RouterCycles: 3, ClockMHz: 100}
}

func (c Config) validate() error {
	if c.FlitBits <= 0 || c.BufferFlits <= 0 || c.NumVCs <= 0 || c.LinkCycles <= 0 || c.RouterCycles <= 0 || c.ClockMHz <= 0 {
		return fmt.Errorf("noc: nonpositive config field: %+v", c)
	}
	return nil
}

// Packet is one network transaction.
type Packet struct {
	ID   int
	Src  graph.NodeID
	Dst  graph.NodeID
	Bits int
	// Tag is free-form application context (e.g. the AES round).
	Tag string
	// Payload carries application data end to end; the simulator moves it
	// untouched (the flit count depends only on Bits).
	Payload interface{}

	// InjectCycle is when the packet entered the source queue; EjectCycle
	// when its tail flit left the network at the destination (zero while
	// the packet is still in flight).
	InjectCycle int64
	EjectCycle  int64

	// route, vcs and outSlot are read-only views of the packet's plan:
	// either shared slices of the network's compiled routing table
	// (Inject) or the packet's own buffers (InjectRouted). outSlot[h] is
	// the output-port slot a flit occupying route[h] requests (the slot
	// of route[h+1] at route[h]'s router, or the local ejection slot at
	// the destination).
	route   []graph.NodeID
	vcs     []uint8
	outSlot []int32

	// ownRoute/ownVCs/ownSlot are the packet's reusable backing buffers
	// for explicitly routed injections; the arena retains their capacity
	// across recycles.
	ownRoute []graph.NodeID
	ownVCs   []uint8
	ownSlot  []int32

	// arenaIdx is the packet's slot in Network.pktSlots while in flight;
	// flits refer to their packet through it.
	arenaIdx int32

	flits    int
	injected int // flits handed to the local input port so far
}

// Route returns the packet's resolved route (read-only view).
func (p *Packet) Route() []graph.NodeID {
	return append([]graph.NodeID(nil), p.route...)
}

// Latency returns the packet's in-network latency in cycles, or -1 while
// the packet is still in flight (its tail flit has not ejected yet, so
// EjectCycle is unset). Delivered packets always report a positive
// latency: ejection happens no earlier than the cycle after injection.
func (p *Packet) Latency() int64 {
	if p.EjectCycle == 0 {
		return -1
	}
	return p.EjectCycle - p.InjectCycle
}

// flit is the unit of flow control. It refers to its packet by arena
// slot index (see Network.pktSlots) and carries its plan-derived routing
// state denormalized at creation time — the hop, the VC it occupies, the
// output slot it requests and the VC of the next hop are all invariant
// while the flit sits in a buffer. A flit is therefore pointer-free:
// rings and timing-wheel buckets copy and clear plain words with no GC
// write barriers, and arbitration reads the flit alone without touching
// the packet. The zero flit has pktIdx 0, which is never a live slot.
type flit struct {
	// pktIdx is the packet's arena slot in Network.pktSlots (0 = none).
	pktIdx int32
	// hop is the index into the packet's route of the router the flit
	// currently sits in (or travels toward).
	hop int16
	// want is the output-port slot the flit requests at its hop's router:
	// outSlot[hop] (the final plan entry is the destination's local
	// ejection slot, so no special case is needed).
	want int16
	// vc is the virtual channel the flit occupies at this hop
	// (vcs[hop]); nextVC is the VC of the following hop, which governs
	// the downstream buffer credits are charged against (0 at the
	// destination, where it is unused).
	vc     int16
	nextVC int16
	isHead bool
	isTail bool
}

// flitAt builds the denormalized flit for packet p at the given hop.
func flitAt(p *Packet, hop int16, isHead, isTail bool) flit {
	f := flit{
		pktIdx: p.arenaIdx,
		hop:    hop,
		want:   int16(p.outSlot[hop]),
		vc:     int16(p.vcs[hop]),
		isHead: isHead,
		isTail: isTail,
	}
	if int(hop)+1 < len(p.vcs) {
		f.nextVC = int16(p.vcs[hop+1])
	}
	return f
}

// pktRing is a growable FIFO of packets — the per-router NI source queue.
// pop nils the vacated slot, fixing the historical head-drop leak where
// delivered packets stayed reachable through the queue's backing array.
type pktRing struct {
	buf  []*Packet
	head int
	n    int
}

func (q *pktRing) peek() *Packet { return q.buf[q.head] }

func (q *pktRing) push(p *Packet) {
	if q.n == len(q.buf) {
		grown := make([]*Packet, max(2*len(q.buf), 8))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
}

func (q *pktRing) pop() *Packet {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return p
}

func (q *pktRing) reset() {
	clear(q.buf)
	q.head, q.n = 0, 0
}

// arrival is a flit in flight on a link; its landing cycle is implied by
// the timing-wheel bucket it sits in.
type arrival struct {
	to   int32 // dense index of the receiving router
	port int32 // global input-port index at the receiver
	f    flit
}

// Network is the simulator instance.
//
// The kernel state is struct-of-arrays. Router i's ports occupy the
// contiguous global index range portOff[i]..portOff[i+1]: slot k is its
// k-th smallest CSR neighbor, and the last slot is the local
// injection/ejection port. One global port index g names both the
// ingress and egress sides of the port; the per-(port, VC) lane index is
// g*NumVCs+vc. All hot Step-loop state — ring cursors, head-of-line
// mirrors, credits, want counters, wormhole locks — is a flat array over
// ports or lanes, so a cycle walks dense memory and Reset is a handful
// of bulk clears.
type Network struct {
	cfg   Config
	arch  *topology.Architecture
	plans *routing.CompiledTable

	frz   *graph.Frozen
	order []graph.NodeID

	// Port geometry (immutable after build).
	portOff   []int32 // per router: first global port index; len NodeCount+1
	peer      []int32 // per port: global index of the same link's port at the other router (-1 for local ports)
	outTo     []int32 // per port: dense downstream router index (own index for the local port)
	outEdge   []int32 // per port: frozen directed edge id the output side drives (-1 for local)
	outLocal  []bool  // per port: true for the local ejection port
	portOrder []int32 // per router at portOff offsets: local slots in deterministic arbitration key order

	// Per-lane state (lane = global port * NumVCs + vc).
	ringBuf     []flit  // lane l's FIFO storage is ringBuf[l*BufferFlits:(l+1)*BufferFlits]
	ringHead    []int32 // per lane: ring head cursor
	ringN       []int32 // per lane: ring occupancy
	headWant    []int16 // per lane: output slot the head flit requests, -1 when empty
	headNextVC  []int16 // per lane: head flit's next-hop VC
	credits     []int32 // per output lane: free downstream buffer space
	creditsInit []int32 // pristine credits (BufferFlits, or the local sink's effectively infinite supply)

	// Per-port / per-slot state.
	outLocked    []int32 // per output port: locking input slot*NumVCs+vc, -1 free (wormhole)
	outLockedPkt []int32 // per output port: arena slot of the locking packet (0 free)
	outRR        []int   // per output port: round-robin arbitration pointer
	wantCnt      []int32 // per (router, slot) at portOff offsets: buffered head flits requesting the slot

	cycle int64

	// wheel[c mod len(wheel)] holds the flits landing at cycle c; the
	// link+pipeline delay is constant, so one bucket per delay step plus
	// the current cycle suffices and buckets never collide.
	wheel      [][]arrival
	wheelDelay int64

	srcQueue []pktRing // per router index: NI queues awaiting local port space
	pending  int       // packets injected but not ejected

	// Activity tracking: a router is active while any of its input rings
	// holds a flit (bufFlits counts them); a source is active while its
	// NI queue is nonempty. Inactive routers are provably no-ops for
	// arbitration (no candidates, no state change), so Step skips them.
	bufFlits   []int32
	active     []int32
	activeMark []bool
	srcActive  []int32
	srcMark    []bool

	// Packet arena. pktSlots[i] is the in-flight packet flits refer to by
	// index (slot 0 is reserved so the zero flit means "none"); a slot is
	// released the moment the packet's tail ejects, so delivered packets
	// are never pinned by the network. freeSlots recycles slot numbers;
	// freePkts additionally recycles the Packet structs themselves when
	// recycling is on, making steady-state injection allocation-free.
	pktSlots  []*Packet
	freeSlots []int32
	freePkts  []*Packet
	recycle   bool

	candScratch []int32 // arbitration candidate buffer, reused across calls

	// Fault state (all empty/false on a pristine network). linkDown is
	// indexed by frozen directed edge id, routerDown by dense router
	// index; faulted is true once any fault has been applied.
	// faultQueue[faultIdx:] are the scheduled failures yet to strike,
	// sorted by cycle.
	linkDown   []bool
	routerDown []bool
	faulted    bool
	faultQueue []FaultEvent
	faultIdx   int

	// routing selects the route-resolution path Inject uses; adapt is the
	// lazily (re)built up*/down* state behind RoutingAdaptive, invalidated
	// by every topology change (adaptDirty).
	routing    RoutingMode
	adapt      *adaptiveState
	adaptDirty bool

	// Partitioned-execution state (see parallel.go). nParts <= 1 selects
	// the serial kernel, which never reads any of these. At nParts > 1
	// routers split into contiguous index ranges, each advanced by its own
	// worker per cycle; cross-partition flits and credits travel through
	// the writer-owned staging rows and merge at the cycle barrier.
	nParts     int
	partLo     []int32       // per partition: first router index; len nParts+1
	partOf     []int32       // per router: owning partition
	portPart   []int32       // per global port: owning partition
	wheelP     [][][]arrival // per partition: private timing wheel (same bucket count as wheel)
	activeP    [][]int32     // per partition: active-router worklist
	srcActiveP [][]int32     // per partition: active-source worklist
	candP      [][]int32     // per partition: arbitration candidate scratch
	stagedArr  [][]arrival   // [src*nParts+dst]: cross-partition link sends this cycle
	stagedCred [][]int32     // [src*nParts+dst]: cross-partition credit-return lanes this cycle
	stagedEj   [][]int32     // per partition: tail-ejected arena slots, router-ascending
	// boundaryStalls counts barrier-merged forward credits (returned to a
	// higher partition) that found their lane empty — the only mechanism
	// by which a partitioned schedule can diverge from the serial one.
	// Zero stalls certify the run's stats equal the serial kernel's.
	boundaryStalls int64

	stats    Stats
	swTrav   []int64 // switch traversals per router index
	linkTrav []int64 // flit traversals per frozen directed edge id
	onEject  func(*Packet)
	nextID   int
}

// localPort returns the global index of router i's local port (always
// its last slot).
func (n *Network) localPort(i int32) int32 { return n.portOff[i+1] - 1 }

// localSlot returns router i's local port slot (= its degree).
func (n *Network) localSlot(i int32) int32 { return n.portOff[i+1] - n.portOff[i] - 1 }

// csrSlot returns the position of v in an ascending CSR neighbor row —
// the port-slot convention shared with routing.CompiledTable.
func csrSlot(nbr []int32, v int32) (int32, bool) {
	lo, hi := 0, len(nbr)
	for lo < hi {
		mid := (lo + hi) / 2
		if nbr[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nbr) && nbr[lo] == v {
		return int32(lo), true
	}
	return 0, false
}

// New builds a simulator over the architecture and routing table,
// compiling the table and the deadlock-free VC assignment into dense
// route plans (the assignment determines NumVCs if cfg.NumVCs is lower).
// Callers building several networks over the same (table, vc) should
// compile once with routing.CompileTable and use NewCompiled.
func New(cfg Config, arch *topology.Architecture, table routing.Table, vc routing.VCAssignment) (*Network, error) {
	if arch == nil {
		return nil, fmt.Errorf("noc: nil architecture")
	}
	ct, err := routing.CompileTable(table, arch, vc)
	if err != nil {
		return nil, err
	}
	return NewCompiled(cfg, arch, ct)
}

// NewCompiled builds a simulator over an architecture and a pre-compiled
// routing table. The compiled plans must come from the same architecture;
// sharing one CompiledTable across many networks (sweep workers, batch
// pools, service simulations) amortizes the route compilation. The build
// itself is a fixed small number of bulk allocations — O(ports) work with
// no per-router objects — so even 10k-router topologies construct in
// well under a millisecond.
func NewCompiled(cfg Config, arch *topology.Architecture, plans *routing.CompiledTable) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if arch == nil || plans == nil {
		return nil, fmt.Errorf("noc: nil architecture or compiled table")
	}
	if plans.NumVCs() > cfg.NumVCs {
		cfg.NumVCs = plans.NumVCs()
	}
	// Adopt the compiled table's frozen view so plan out-slots and router
	// port slots agree by construction.
	frz := plans.Frozen()
	if frz.NodeCount() != len(arch.Nodes()) {
		return nil, fmt.Errorf("noc: compiled table covers %d nodes, architecture has %d",
			frz.NodeCount(), len(arch.Nodes()))
	}
	for _, id := range arch.Nodes() {
		if _, ok := frz.IndexOf(id); !ok {
			return nil, fmt.Errorf("noc: compiled table lacks architecture node %d", id)
		}
	}
	// Each physical link contributes one directed edge per direction to
	// the frozen view; a count mismatch means the table was compiled
	// against a different topology than the one being simulated.
	if frz.EdgeCount() != 2*arch.LinkCount() {
		return nil, fmt.Errorf("noc: compiled table has %d directed edges, architecture has %d links",
			frz.EdgeCount(), arch.LinkCount())
	}
	R := frz.NodeCount()
	n := &Network{
		cfg:   cfg,
		arch:  arch,
		plans: plans,
		frz:   frz,
		order: append([]graph.NodeID(nil), frz.IDs()...),
	}
	n.stats = newStats()
	n.pktSlots = make([]*Packet, 1) // slot 0 reserved: zero flit = no packet
	n.swTrav = make([]int64, R)
	n.linkTrav = make([]int64, frz.EdgeCount())
	n.srcQueue = make([]pktRing, R)
	n.bufFlits = make([]int32, R)
	n.activeMark = make([]bool, R)
	n.srcMark = make([]bool, R)
	n.wheelDelay = int64(cfg.LinkCycles) + int64(cfg.RouterCycles-1)
	n.wheel = make([][]arrival, n.wheelDelay+1)

	// Port geometry: one slot per CSR neighbor plus the local port, laid
	// out contiguously per router.
	n.portOff = make([]int32, R+1)
	for i := 0; i < R; i++ {
		n.portOff[i+1] = n.portOff[i] + int32(frz.OutDegree(i)) + 1
	}
	P := int(n.portOff[R])
	V := cfg.NumVCs
	n.peer = make([]int32, P)
	n.outTo = make([]int32, P)
	n.outEdge = make([]int32, P)
	n.outLocal = make([]bool, P)
	n.portOrder = make([]int32, P)
	n.ringBuf = make([]flit, P*V*cfg.BufferFlits)
	n.ringHead = make([]int32, P*V)
	n.ringN = make([]int32, P*V)
	n.headWant = make([]int16, P*V)
	n.headNextVC = make([]int16, P*V)
	n.creditsInit = make([]int32, P*V)
	n.credits = make([]int32, P*V)
	n.outLocked = make([]int32, P)
	n.outLockedPkt = make([]int32, P)
	n.outRR = make([]int, P)
	n.wantCnt = make([]int32, P)

	// Wire ports from the frozen adjacency. The architecture graph carries
	// both directions of every physical link, so the CSR out-row of a
	// vertex is exactly its neighbor set, ascending.
	maxPorts := 0
	for i := 0; i < R; i++ {
		base := n.portOff[i]
		nbr := frz.Out(i)
		if len(nbr)+1 > maxPorts {
			maxPorts = len(nbr) + 1
		}
		e := frz.OutEdgeStart(i)
		for k, v := range nbr {
			g := base + int32(k)
			// The slot of i at neighbor v serves both directions: it is
			// where this output's flits land and where this input's credits
			// return.
			downSlot, ok := csrSlot(frz.Out(int(v)), int32(i))
			if !ok {
				return nil, fmt.Errorf("noc: asymmetric link %d-%d", frz.IDOf(i), frz.IDOf(int(v)))
			}
			n.peer[g] = n.portOff[v] + downSlot
			n.outTo[g] = v
			n.outEdge[g] = int32(e + k)
			n.outLocked[g] = -1
			for c := 0; c < V; c++ {
				n.creditsInit[int(g)*V+c] = int32(cfg.BufferFlits)
			}
		}
		// Local port: last slot. The local sink's credits are effectively
		// infinite and never consumed.
		lg := n.portOff[i+1] - 1
		n.peer[lg] = -1
		n.outTo[lg] = int32(i)
		n.outEdge[lg] = -1
		n.outLocal[lg] = true
		n.outLocked[lg] = -1
		for c := 0; c < V; c++ {
			n.creditsInit[int(lg)*V+c] = 1 << 30
		}
		// Port keys ascend: neighbors below the router's own index, then
		// the local port, then the rest.
		pos := 0
		for pos < len(nbr) && nbr[pos] < int32(i) {
			pos++
		}
		po := n.portOrder[base:n.portOff[i+1]]
		w := 0
		for k := 0; k < pos; k++ {
			po[w] = int32(k)
			w++
		}
		po[w] = int32(len(nbr)) // local slot
		w++
		for k := pos; k < len(nbr); k++ {
			po[w] = int32(k)
			w++
		}
	}
	copy(n.credits, n.creditsInit)
	for l := range n.headWant {
		n.headWant[l] = -1
	}
	n.candScratch = make([]int32, 0, maxPorts*V)
	return n, nil
}

// pushFlit appends f to input port gi's VC ring at router `to`,
// maintaining the head mirror, the output request counters and the
// router activity worklist.
func (n *Network) pushFlit(to, gi int32, f flit) {
	V := int32(n.cfg.NumVCs)
	B := int32(n.cfg.BufferFlits)
	lane := gi*V + int32(f.vc)
	if n.ringN[lane] == 0 {
		n.headWant[lane] = f.want
		n.headNextVC[lane] = f.nextVC
		n.wantCnt[n.portOff[to]+int32(f.want)]++
	}
	tail := n.ringHead[lane] + n.ringN[lane]
	if tail >= B {
		tail -= B
	}
	n.ringBuf[lane*B+tail] = f
	n.ringN[lane]++
	n.bufFlits[to]++
	n.markActive(to)
}

// popFlit removes the head flit of input port gi's VC ring, maintaining
// the same incremental state as pushFlit. pop zeroes the vacated slot so
// a drained network retains no packet references through the shared ring
// backing array.
func (n *Network) popFlit(to, gi, vc int32) flit {
	V := int32(n.cfg.NumVCs)
	B := int32(n.cfg.BufferFlits)
	lane := gi*V + vc
	base := lane * B
	h := n.ringHead[lane]
	f := n.ringBuf[base+h]
	n.ringBuf[base+h] = flit{}
	h++
	if h == B {
		h = 0
	}
	n.ringHead[lane] = h
	n.ringN[lane]--
	n.wantCnt[n.portOff[to]+int32(f.want)]--
	if n.ringN[lane] > 0 {
		nh := &n.ringBuf[base+h]
		n.headWant[lane] = nh.want
		n.headNextVC[lane] = nh.nextVC
		n.wantCnt[n.portOff[to]+int32(nh.want)]++
	} else {
		n.headWant[lane] = -1
	}
	n.bufFlits[to]--
	return f
}

// Reset rewinds the network to its cold post-construction state: cycle
// zero, empty buffers and source queues, full credits, released wormhole
// locks, rewound round-robin pointers, zeroed statistics and activity
// counters, and no delivery callback. The wiring, compiled route plans,
// packet arena and the packet-recycling mode are retained (re-disable
// recycling explicitly if the next workload retains packets), so a
// Reset network simulates observably identically to a freshly built one
// while costing no rebuild — the contract the sweep harness and the
// batch engine's network pool rely on to reuse one network across
// simulation points. With the struct-of-arrays layout the rewind is a
// fixed set of bulk clears over flat arrays: O(ports·VCs) with memclr
// constants, no per-router pointer walks.
//
// Reset also restores the pristine, fault-free topology: every fault a
// previous ResetWithFaults installed — static or already struck mid-run
// — is cleared, and the scheduled queue is emptied. A network that ran
// a fault schedule and was then Reset is indistinguishable from a
// freshly built one. The routing mode (SetRouting) is retained, like
// recycling; its adaptive route state is rebuilt against the restored
// topology on the next adaptive injection.
func (n *Network) Reset() {
	if n.faulted || len(n.faultQueue) > 0 {
		clear(n.linkDown)
		clear(n.routerDown)
		n.faulted = false
		n.faultQueue = nil
		n.faultIdx = 0
		n.adaptDirty = true
	}
	if n.adapt != nil {
		n.adapt.laneSeq = 0 // adaptive lane rotation restarts with the run
	}
	n.cycle = 0
	n.pending = 0
	n.nextID = 0
	n.onEject = nil
	n.stats.reset()
	clear(n.swTrav)
	clear(n.linkTrav)
	clear(n.bufFlits)
	for i := range n.wheel {
		clear(n.wheel[i])
		n.wheel[i] = n.wheel[i][:0]
	}
	clear(n.ringBuf)
	clear(n.ringHead)
	clear(n.ringN)
	for l := range n.headWant {
		n.headWant[l] = -1
	}
	clear(n.headNextVC)
	copy(n.credits, n.creditsInit)
	for g := range n.outLocked {
		n.outLocked[g] = -1
	}
	clear(n.outLockedPkt)
	clear(n.outRR)
	clear(n.wantCnt)
	for i := range n.srcQueue {
		n.srcQueue[i].reset()
	}
	clear(n.pktSlots)
	n.pktSlots = n.pktSlots[:1]
	n.freeSlots = n.freeSlots[:0]
	for _, i := range n.active {
		n.activeMark[i] = false
	}
	n.active = n.active[:0]
	for _, i := range n.srcActive {
		n.srcMark[i] = false
	}
	n.srcActive = n.srcActive[:0]
	if n.nParts > 1 {
		n.resetPartitions()
	}
}

// SetPacketRecycling toggles the packet arena's freelist: when on,
// delivered packets are reclaimed and reused by later injections, making
// steady-state injection allocation-free. A recycled *Packet is only
// valid until the OnEject callback (if any) returns; callers that retain
// packet pointers past delivery must leave recycling off (the default).
func (n *Network) SetPacketRecycling(on bool) { n.recycle = on }

// Cycle returns the current simulation cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// Nodes returns the network's node ids in ascending order.
func (n *Network) Nodes() []graph.NodeID {
	return append([]graph.NodeID(nil), n.order...)
}

// Pending returns the number of packets injected but not yet delivered.
func (n *Network) Pending() int { return n.pending }

// OnEject registers a delivery callback, invoked when a packet's tail flit
// leaves the network (application layers build dataflow on this). With
// packet recycling on, the *Packet argument is reclaimed when the
// callback returns. Reset clears the registration.
func (n *Network) OnEject(fn func(*Packet)) { n.onEject = fn }

// allocPacket takes a packet from the freelist or the heap.
func (n *Network) allocPacket() *Packet {
	if k := len(n.freePkts); k > 0 {
		p := n.freePkts[k-1]
		n.freePkts[k-1] = nil
		n.freePkts = n.freePkts[:k-1]
		return p
	}
	return &Packet{}
}

// freePacket returns a delivered packet to the arena, dropping the
// references it holds (payload and shared plan views) so recycled
// packets pin no application data.
func (n *Network) freePacket(p *Packet) {
	p.Payload = nil
	p.Tag = ""
	p.route, p.vcs, p.outSlot = nil, nil, nil
	n.freePkts = append(n.freePkts, p)
}

// Inject queues a packet for injection at the current cycle. In the
// default oblivious mode the route, per-hop virtual channels and output
// slots come from the network's compiled routing table — shared
// read-only plan views, no per-packet resolution or copying; an
// unroutable packet is an error. In adaptive mode (SetRouting) the
// route is chosen per packet over the live, fault-masked topology.
//
// On a faulted network, a plan that crosses a failed link or router is
// refused with an error wrapping ErrRouteFaulted and counted under
// Stats.Blocked (not Injected) — the oblivious table cannot route
// around faults; that is exactly the gap adaptive mode closes.
func (n *Network) Inject(src, dst graph.NodeID, bits int, tag string) (*Packet, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("noc: packet bits %d", bits)
	}
	if src == dst {
		return nil, fmt.Errorf("noc: self-addressed packet at node %d", src)
	}
	si, ok := n.frz.IndexOf(src)
	if !ok {
		return nil, fmt.Errorf("noc: unknown source node %d", src)
	}
	di, ok := n.frz.IndexOf(dst)
	if !ok {
		return nil, fmt.Errorf("noc: no route from %d to unknown node %d", src, dst)
	}
	if n.routing == RoutingAdaptive {
		return n.injectAdaptive(src, dst, bits, tag, si, di)
	}
	route, vcs, outSlot, miss, ok := n.plans.PlanByIndexLazy(si, di)
	if !ok {
		return nil, fmt.Errorf("noc: no route from %d to %d", src, dst)
	}
	if n.faulted && !n.planLive(si, outSlot) {
		n.stats.Blocked++
		return nil, fmt.Errorf("noc: %d->%d: %w", src, dst, ErrRouteFaulted)
	}
	if miss {
		n.stats.PlanMisses++
	}
	p := n.allocPacket()
	p.route, p.vcs, p.outSlot = route, vcs, outSlot
	n.enqueue(p, src, dst, bits, tag, int32(si))
	return p, nil
}

// InjectRouted queues a packet with an explicit source route and per-hop
// virtual channel assignment (vcs[i] is the VC occupied at route[i]; the
// final entry covers ejection and is conventionally 0). This is the hook
// oblivious/stochastic/adaptive routing strategies use: they choose the
// route per packet, outside the deterministic table. The caller is
// responsible for choosing routes and VC classes whose union is
// deadlock-free. The route is validated hop by hop and copied into the
// packet's own buffers (reused across recycles).
func (n *Network) InjectRouted(src, dst graph.NodeID, bits int, tag string, route []graph.NodeID, vcs []int) (*Packet, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("noc: packet bits %d", bits)
	}
	if src == dst {
		return nil, fmt.Errorf("noc: self-addressed packet at node %d", src)
	}
	if len(route) < 2 || route[0] != src || route[len(route)-1] != dst {
		return nil, fmt.Errorf("noc: route %v does not connect %d to %d", route, src, dst)
	}
	if len(vcs) != len(route) {
		return nil, fmt.Errorf("noc: vcs length %d != route length %d", len(vcs), len(route))
	}
	// Resolve the route to dense indices and per-hop output slots once.
	// csrSlot doubles as the link-existence check: the frozen adjacency is
	// built from the architecture's links.
	p := n.allocPacket()
	p.ownRoute = append(p.ownRoute[:0], route...)
	p.ownSlot = p.ownSlot[:0]
	fail := func(err error) (*Packet, error) {
		n.freePkts = append(n.freePkts, p)
		return nil, err
	}
	var srcIdx int32
	prev := -1
	for i, id := range route {
		ri, ok := n.frz.IndexOf(id)
		if !ok {
			return fail(fmt.Errorf("noc: route %v visits unknown node %d", route, id))
		}
		if i == 0 {
			srcIdx = int32(ri)
		} else {
			slot, ok := csrSlot(n.frz.Out(prev), int32(ri))
			if !ok {
				return fail(fmt.Errorf("noc: route %v uses missing link %d-%d", route, route[i-1], id))
			}
			p.ownSlot = append(p.ownSlot, slot)
		}
		prev = ri
	}
	for i := 0; i+1 < len(route); i++ {
		if vcs[i] < 0 || vcs[i] >= n.cfg.NumVCs {
			return fail(fmt.Errorf("noc: vc %d out of range [0,%d)", vcs[i], n.cfg.NumVCs))
		}
	}
	// Validated above for every occupied hop; the final (ejection) entry
	// is conventionally 0 and merely needs to fit the plan's byte lanes.
	p.ownVCs = p.ownVCs[:0]
	for _, v := range vcs {
		if v < 0 || v > 255 {
			return fail(fmt.Errorf("noc: vc %d outside the plan byte range [0,256)", v))
		}
		p.ownVCs = append(p.ownVCs, uint8(v))
	}
	p.ownSlot = append(p.ownSlot, n.localSlot(int32(prev)))
	if n.faulted && !n.planLive(int(srcIdx), p.ownSlot) {
		n.freePkts = append(n.freePkts, p)
		n.stats.Blocked++
		return nil, fmt.Errorf("noc: %d->%d: %w", src, dst, ErrRouteFaulted)
	}
	p.route, p.vcs, p.outSlot = p.ownRoute, p.ownVCs, p.ownSlot
	n.enqueue(p, src, dst, bits, tag, srcIdx)
	return p, nil
}

// enqueue finishes packet setup — including its arena slot, which flits
// use to refer to it — and appends it to the source NI queue.
func (n *Network) enqueue(p *Packet, src, dst graph.NodeID, bits int, tag string, srcIdx int32) {
	n.nextID++
	p.ID = n.nextID
	p.Src, p.Dst = src, dst
	p.Bits = bits
	p.Tag = tag
	p.Payload = nil
	p.InjectCycle = n.cycle
	p.EjectCycle = 0
	p.flits = 1 + (bits+n.cfg.FlitBits-1)/n.cfg.FlitBits
	p.injected = 0
	if k := len(n.freeSlots); k > 0 {
		p.arenaIdx = n.freeSlots[k-1]
		n.freeSlots = n.freeSlots[:k-1]
		n.pktSlots[p.arenaIdx] = p
	} else {
		p.arenaIdx = int32(len(n.pktSlots))
		n.pktSlots = append(n.pktSlots, p)
	}
	n.srcQueue[srcIdx].push(p)
	if !n.srcMark[srcIdx] {
		n.srcMark[srcIdx] = true
		if n.nParts > 1 {
			p := n.partOf[srcIdx]
			n.srcActiveP[p] = append(n.srcActiveP[p], srcIdx)
		} else {
			n.srcActive = append(n.srcActive, srcIdx)
		}
	}
	n.pending++
	n.stats.Injected++
}

// InputOccupancy returns the number of flits currently buffered in the
// router's input ports — the congestion signal adaptive strategies use.
func (n *Network) InputOccupancy(node graph.NodeID) int {
	i, ok := n.frz.IndexOf(node)
	if !ok {
		return 0
	}
	V := int32(n.cfg.NumVCs)
	total := int32(0)
	for _, c := range n.ringN[n.portOff[i]*V : n.portOff[i+1]*V] {
		total += c
	}
	return int(total)
}

// Step advances the simulation by one cycle. Scheduled faults due this
// cycle strike first — before link arrivals land — so a flit cannot use
// an element in the cycle its failure takes effect. With SetPartitions
// above one, the cycle runs on the partitioned kernel (parallel.go);
// the serial path below is otherwise untouched.
func (n *Network) Step() {
	if n.nParts > 1 {
		n.stepParallel()
		return
	}
	n.cycle++
	if n.faultIdx < len(n.faultQueue) && n.faultQueue[n.faultIdx].Cycle <= n.cycle {
		n.fireFaults()
	}
	n.deliverArrivals()
	n.injectFromNIs()
	n.switchAllocation()
}

// RunUntilDrained steps until no packets are pending or maxCycles elapse,
// returning whether the network drained. A horizon that would overflow
// the cycle counter (e.g. math.MaxInt64) is clamped to "no limit" rather
// than wrapping negative and returning immediately.
func (n *Network) RunUntilDrained(maxCycles int64) bool {
	limit := n.cycle + maxCycles
	if maxCycles > 0 && limit < n.cycle {
		limit = math.MaxInt64
	}
	for n.pending > 0 && n.cycle < limit {
		n.Step()
	}
	return n.pending == 0
}

// markActive flags a router as holding buffered flits. In partitioned
// mode the worklist entry goes to the owning partition's private list;
// only that partition's worker (or the barrier-holding main goroutine)
// ever marks its routers, so the shared mark array stays race-free.
func (n *Network) markActive(i int32) {
	if !n.activeMark[i] {
		n.activeMark[i] = true
		if n.nParts > 1 {
			p := n.partOf[i]
			n.activeP[p] = append(n.activeP[p], i)
		} else {
			n.active = append(n.active, i)
		}
	}
}

// deliverArrivals moves flits that finished their link traversal into the
// downstream input buffers (space was reserved by credits at send time).
// Only the timing-wheel bucket of the current cycle is touched; bucket
// order is send order, preserving the pre-wheel delivery order exactly.
func (n *Network) deliverArrivals() {
	slot := n.cycle % int64(len(n.wheel))
	bucket := n.wheel[slot]
	for i := range bucket {
		a := &bucket[i]
		n.pushFlit(a.to, a.port, a.f)
		*a = arrival{} // release the packet reference
	}
	n.wheel[slot] = bucket[:0]
}

// injectFromNIs moves waiting packets' flits into local input ports while
// buffer space remains. Flits are created lazily: a packet at the head of
// the NI queue feeds one flit per cycle into the local port (the NI also
// serializes at link width). Only routers with queued packets are
// visited; the per-router work is independent, so worklist order is
// immaterial.
func (n *Network) injectFromNIs() {
	V := int32(n.cfg.NumVCs)
	keep := n.srcActive[:0]
	for _, i := range n.srcActive {
		q := &n.srcQueue[i]
		if q.n == 0 {
			n.srcMark[i] = false
			continue
		}
		keep = append(keep, i)
		p := q.peek()
		gi := n.localPort(i)
		vc := int32(p.vcs[0])
		if int(n.ringN[gi*V+vc]) >= n.cfg.BufferFlits {
			continue
		}
		isTail := p.injected == p.flits-1
		n.pushFlit(i, gi, flitAt(p, 0, p.injected == 0, isTail))
		p.injected++
		if isTail {
			q.pop()
		}
	}
	n.srcActive = keep
}

// switchAllocation arbitrates every output port of every active router —
// ascending router index, matching the pre-worklist full scan, which is
// required because credits returned at one router are visible to
// higher-indexed routers within the same cycle. Routers without buffered
// flits can produce no arbitration candidates and no state change, so
// skipping them is behavior-preserving.
func (n *Network) switchAllocation() {
	if len(n.active) == 0 {
		return
	}
	slices.Sort(n.active)
	for _, idx := range n.active {
		base := n.portOff[idx]
		for _, slot := range n.portOrder[base:n.portOff[idx+1]] {
			if n.wantCnt[base+slot] > 0 {
				n.arbitrate(idx, slot)
			}
		}
	}
	keep := n.active[:0]
	for _, idx := range n.active {
		if n.bufFlits[idx] > 0 {
			keep = append(keep, idx)
		} else {
			n.activeMark[idx] = false
		}
	}
	n.active = keep
}

// arbitrate picks one input VC for router i's output port at the given
// local slot and moves its head-of-line flit.
func (n *Network) arbitrate(i, outSlot int32) {
	base := n.portOff[i]
	g := base + outSlot
	V := int32(n.cfg.NumVCs)
	want := int16(outSlot)
	local := n.outLocal[g]
	if lk := n.outLocked[g]; lk >= 0 {
		// Wormhole fast path: while the output is locked, the only
		// admissible candidate is the locked (slot, vc) — every other
		// requester fails the lock filter — and that queue's head, if
		// any, is the locked packet's next flit (per-VC FIFO order). The
		// full scan would build a one-element or empty candidate set.
		slot, vc := lk/V, lk%V
		lane := (base+slot)*V + vc
		if n.headWant[lane] != want {
			return
		}
		if !local && n.credits[g*V+int32(n.headNextVC[lane])] <= 0 {
			return
		}
		n.outRR[g]++
		n.moveFlit(i, g, slot, vc)
		return
	}
	// cands collects input (slot, vc) pairs encoded as slot*NumVCs+vc, in
	// ascending port order (the deterministic arbitration domain).
	cands := n.candScratch[:0]
	for _, slot := range n.portOrder[base:n.portOff[i+1]] {
		laneBase := (base + slot) * V
		for vc := int32(0); vc < V; vc++ {
			// headWant is -1 for an empty ring, never matching a slot.
			if n.headWant[laneBase+vc] != want {
				continue
			}
			// Credit check for the downstream buffer (the VC of the NEXT
			// hop governs which buffer the flit lands in).
			if !local && n.credits[g*V+int32(n.headNextVC[laneBase+vc])] <= 0 {
				continue
			}
			cands = append(cands, slot*V+vc)
		}
	}
	if len(cands) == 0 {
		return
	}
	// Round-robin among candidates.
	key := cands[n.outRR[g]%len(cands)]
	n.outRR[g]++
	n.moveFlit(i, g, key/V, key%V)
}

// moveFlit pops the head flit of router i's input (selSlot, selVC) and
// moves it through the crossbar to output port g: wormhole lock
// bookkeeping, upstream credit return, and either local ejection or the
// link send onto the timing wheel.
func (n *Network) moveFlit(i, g, selSlot, selVC int32) {
	V := int32(n.cfg.NumVCs)
	gi := n.portOff[i] + selSlot
	f := n.popFlit(i, gi, selVC)

	// Wormhole lock management.
	if f.isHead {
		n.outLocked[g] = selSlot*V + selVC
		n.outLockedPkt[g] = f.pktIdx
	}
	if f.isTail {
		n.outLocked[g] = -1
		n.outLockedPkt[g] = 0
	}

	// Credit return to upstream (a buffer slot freed at this router).
	if up := n.peer[gi]; up >= 0 {
		n.credits[up*V+selVC]++
	}

	n.swTrav[i]++

	if n.outLocal[g] {
		// Local ejection. The arena slot is released unconditionally —
		// the network never pins a delivered packet — and the Packet
		// struct itself is reclaimed only when recycling is on.
		if f.isTail {
			p := n.pktSlots[f.pktIdx]
			n.pktSlots[f.pktIdx] = nil
			n.freeSlots = append(n.freeSlots, f.pktIdx)
			p.EjectCycle = n.cycle
			n.pending--
			n.stats.recordDelivery(p)
			if n.onEject != nil {
				n.onEject(p)
			}
			if n.recycle {
				n.freePacket(p)
			}
		}
		return
	}

	// Send over the link; the flit becomes switch-allocation eligible at
	// the downstream router only after the link traversal plus the
	// remaining router pipeline stages (stage 1 is the allocation cycle
	// itself). The landing cycle is always cycle+wheelDelay, so the wheel
	// bucket is fixed at send time.
	n.credits[g*V+int32(f.nextVC)]--
	n.linkTrav[n.outEdge[g]]++
	slot := (n.cycle + n.wheelDelay) % int64(len(n.wheel))
	n.wheel[slot] = append(n.wheel[slot], arrival{
		to:   n.outTo[g],
		port: n.peer[g],
		f:    flitAt(n.pktSlots[f.pktIdx], f.hop+1, f.isHead, f.isTail),
	})
}

// PortCount returns the total number of router ports in the network: two
// per physical link (one ingress on each side) plus one local port per
// router. Static power scales with this.
func (n *Network) PortCount() int {
	return 2*n.arch.LinkCount() + n.frz.NodeCount()
}

// DynamicEnergyPJ evaluates the paper's Equation 1 over the simulator's
// activity trace: every switch traversal charges ESbit per bit of flit,
// every link traversal charges ELbit(length) per bit.
func (n *Network) DynamicEnergyPJ(m energy.Model) float64 {
	bitsPerFlit := float64(n.cfg.FlitBits)
	var pj float64
	for _, cnt := range n.swTrav {
		pj += float64(cnt) * bitsPerFlit * m.SwitchBit
	}
	ids := n.frz.IDs()
	for e, cnt := range n.linkTrav {
		if cnt == 0 {
			continue
		}
		from, to := n.frz.EdgeEndpoints(e)
		length := 1.0
		if l, ok := n.arch.LinkBetween(ids[from], ids[to]); ok {
			length = l.LengthMM
		}
		pj += float64(cnt) * bitsPerFlit * m.LinkBit(length)
	}
	return pj
}

// StaticEnergyPJ charges the model's per-port background power over the
// elapsed simulated time — the component an implementation-level power
// measurement (the paper's XPower run) integrates in addition to switching
// activity.
func (n *Network) StaticEnergyPJ(m energy.Model) float64 {
	seconds := float64(n.cycle) / (n.cfg.ClockMHz * 1e6)
	// mW * s = 1e-3 J = 1e9 pJ.
	return m.StaticPortMW * float64(n.PortCount()) * seconds * 1e9
}

// EnergyPJ is the total (dynamic + static) energy of the run so far.
func (n *Network) EnergyPJ(m energy.Model) float64 {
	return n.DynamicEnergyPJ(m) + n.StaticEnergyPJ(m)
}

// AveragePowerMW returns the mean power over the elapsed simulation time
// under the given energy model.
func (n *Network) AveragePowerMW(m energy.Model) float64 {
	if n.cycle == 0 {
		return 0
	}
	pj := n.EnergyPJ(m)
	seconds := float64(n.cycle) / (n.cfg.ClockMHz * 1e6)
	// pJ / s = 1e-12 W; report mW.
	return pj * 1e-12 / seconds * 1e3
}

// Stats returns a snapshot of the accumulated statistics, converting the
// dense activity counters into the id-keyed maps of the public Stats type.
func (n *Network) Stats() Stats {
	s := n.stats.snapshot()
	for i, cnt := range n.swTrav {
		if cnt != 0 {
			s.SwitchTraversals[n.order[i]] = cnt
		}
	}
	ids := n.frz.IDs()
	for e, cnt := range n.linkTrav {
		if cnt != 0 {
			from, to := n.frz.EdgeEndpoints(e)
			s.LinkTraversals[[2]graph.NodeID{ids[from], ids[to]}] = cnt
		}
	}
	return s
}

// ResetStats clears the measurement counters without disturbing in-flight
// traffic — the standard warm-up/measurement-window methodology: drive
// the network to steady state, ResetStats, then measure. The cycle
// counter keeps running; use the returned cycle as the window start.
// (Reset, by contrast, rewinds the whole network to cold.)
func (n *Network) ResetStats() int64 {
	inFlight := n.pending
	n.stats.reset()
	for i := range n.swTrav {
		n.swTrav[i] = 0
	}
	for e := range n.linkTrav {
		n.linkTrav[e] = 0
	}
	// Packets already in the network will still deliver; count them as
	// injected in the new window so conservation checks remain valid.
	n.stats.Injected = int64(inFlight)
	return n.cycle
}

// Config returns the effective configuration (including any VC widening).
func (n *Network) Config() Config { return n.cfg }
