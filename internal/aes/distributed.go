package aes

import (
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/noc"
)

// NodeID returns the network node holding state byte s[row][col] under the
// paper's layout: the 16 identical nodes form a 4x4 row-major grid, node
// id = 4*row + col + 1, so grid column c = {c+1, c+5, c+9, c+13} holds AES
// state column c — the vertex sets the paper's decomposition maps to
// gossip graphs.
func NodeID(row, col int) graph.NodeID {
	return graph.NodeID(4*row + col + 1)
}

// ACG builds the Application Characterization Graph of the distributed
// AES (paper Figure 6a). Edge volumes are bits per encrypted block derived
// from the round structure: ShiftRows moves one byte per round along rows
// (10 rounds), MixColumns gathers one byte from each column peer per
// full round (9 rounds). Bandwidths are set proportional to volume scaled
// by bwPerBit (Mbps per bit-per-block), which callers derive from their
// block rate target.
func ACG(bwPerBit float64) *graph.Graph {
	g := graph.New("aes-acg")
	for i := 1; i <= 16; i++ {
		g.AddNode(graph.NodeID(i))
	}
	// MixColumns: all-to-all within each state column, 8 bits x 9 rounds.
	colVol := 8.0 * 9
	for c := 0; c < 4; c++ {
		for r1 := 0; r1 < 4; r1++ {
			for r2 := 0; r2 < 4; r2++ {
				if r1 != r2 {
					g.AddEdge(graph.Edge{
						From: NodeID(r1, c), To: NodeID(r2, c),
						Volume: colVol, Bandwidth: colVol * bwPerBit,
					})
				}
			}
		}
	}
	// ShiftRows: row r shifts by r, 8 bits x 10 rounds. Sender (r,c)
	// serves receiver (r, (c-r) mod 4). Row 0 needs no communication.
	rowVol := 8.0 * 10
	for r := 1; r < 4; r++ {
		for c := 0; c < 4; c++ {
			dst := NodeID(r, ((c-r)%4+4)%4)
			g.AddEdge(graph.Edge{
				From: NodeID(r, c), To: dst,
				Volume: rowVol, Bandwidth: rowVol * bwPerBit,
			})
		}
	}
	return g
}

// message kinds exchanged by the distributed nodes.
type msgKind int

const (
	msgShift  msgKind = iota // post-SubBytes byte moving along its row
	msgColumn                // post-ShiftRows byte broadcast within a column
)

type message struct {
	kind   msgKind
	round  int
	srcRow int
	value  byte
}

// msgsPerBlock is the number of messages one block sends: a ShiftRows
// byte from each of the 12 nodes outside row 0 in every round, and a
// MixColumns byte from every node to its 3 column peers in each full
// round.
const msgsPerBlock = 12*Rounds + 16*3*(Rounds-1)

// shiftTags and colTags are the packet tags of each round's messages
// ("shift-r3", "col-r3", ...), built once; the network's per-tag
// statistics key on them.
var shiftTags, colTags = roundTags("shift-r%d"), roundTags("col-r%d")

func roundTags(format string) (tags [Rounds + 1]string) {
	for r := range tags {
		tags[r] = fmt.Sprintf(format, r)
	}
	return tags
}

// xtime multiplies by 2 in GF(2^8) with the AES polynomial.
func xtime(b byte) byte { return b<<1 ^ (b>>7)*0x1b }

// mixRow returns output row r of MixColumns over column a:
// 2·a[r] ⊕ 3·a[r+1] ⊕ a[r+2] ⊕ a[r+3], rows mod 4 (the coefficients of
// MixColumnCoeff).
func mixRow(a [4]byte, r int) byte {
	a1 := a[(r+1)&3]
	return xtime(a[r]^a1) ^ a1 ^ a[(r+2)&3] ^ a[(r+3)&3]
}

// nodeState is the per-node controller of the distributed cipher.
type nodeState struct {
	row, col int
	id       graph.NodeID

	curByte byte // current state byte
	round   int  // round being processed (1..10)

	// Phase flags within the round.
	subDone    bool
	shiftByte  byte
	shiftReady bool
	colBytes   [4]byte
	colHave    uint8 // bit r set once row r's column byte arrived

	readyAt  int64 // cycle at which pending local compute completes
	outByte  byte  // final-round result, kept apart from the working byte
	finalSet bool  // final-round byte computed (round 10 shift received)
	done     bool  // finished round 10 AND sent everything owed

	// held buffers messages for rounds this node has not reached yet —
	// neighbors are not globally synchronized and may run ahead.
	held []message
}

// DistConfig tunes the distributed execution.
type DistConfig struct {
	// ComputeCycles models each local compute step (SubBytes, MixColumns
	// + AddRoundKey) as a fixed delay.
	ComputeCycles int
	// MaxCycles aborts a block that runs more than this many cycles from
	// its own start (deadlock guard, per block).
	MaxCycles int64
}

// DefaultDistConfig mirrors a small byte-serial datapath.
func DefaultDistConfig() DistConfig {
	return DistConfig{ComputeCycles: 2, MaxCycles: 1_000_000}
}

// DistResult reports a distributed encryption run.
type DistResult struct {
	// Ciphertexts are the encrypted blocks, bit-identical to the
	// reference cipher.
	Ciphertexts [][]byte
	// TotalCycles is the simulated time for all blocks (sequential),
	// counted from the cycle the run started at.
	TotalCycles int64
	// CyclesPerBlock is TotalCycles / number of blocks — the paper's
	// "Delta cycles/block".
	CyclesPerBlock float64
	// Stats is the network activity snapshot at completion.
	Stats noc.Stats
}

// driver is one EncryptDistributed run over dense state: node i is
// (row, col) = (i/4, i%4), NodeID i+1.
type driver struct {
	net   *noc.Network
	ks    *KeySchedule
	cfg   DistConfig
	nodes [16]nodeState
	// inbox[i] collects node i's deliveries; the node consumes them on
	// its next step and cuts the slice back to length 0.
	inbox [16][]message
	// slab backs the payload of every message sent in the current block.
	// A block ends only once the network holds no packet, so the next
	// block reuses the slab from its start.
	slab []message
}

// EncryptDistributed runs the 16-node distributed AES on the given
// simulator network for every plaintext block, sequentially. The network
// must span nodes 1..16. The result ciphertexts are computed by the nodes
// themselves through simulated messages — bit-identical to Encrypt — so a
// successful run is end-to-end evidence that the synthesized topology and
// routing actually implement the application.
//
// The run installs its own OnEject callback and turns packet recycling
// on (SetPacketRecycling): the callback copies each delivered payload
// into the destination's inbox and keeps no *Packet, so the network
// reuses delivered packets. Both settings stay on the network afterwards.
func EncryptDistributed(net *noc.Network, ks KeySchedule, blocks [][]byte, cfg DistConfig) (*DistResult, error) {
	if net == nil {
		return nil, fmt.Errorf("aes: nil network")
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("aes: no blocks")
	}
	if cfg.ComputeCycles < 0 || cfg.MaxCycles <= 0 {
		return nil, fmt.Errorf("aes: bad config %+v", cfg)
	}
	for _, b := range blocks {
		if len(b) != BlockBytes {
			return nil, fmt.Errorf("aes: block length %d", len(b))
		}
	}

	start := net.Cycle()
	d := &driver{net: net, ks: &ks, cfg: cfg, slab: make([]message, 0, msgsPerBlock)}
	for i := range d.nodes {
		n := &d.nodes[i]
		n.row, n.col = i/4, i%4
		n.id = NodeID(n.row, n.col)
	}
	net.SetPacketRecycling(true)
	net.OnEject(d.deliver)

	result := DistResult{Ciphertexts: make([][]byte, len(blocks))}
	cts := make([]byte, len(blocks)*BlockBytes)
	for b, block := range blocks {
		if err := d.runBlock(b, block); err != nil {
			return nil, err
		}
		ct := cts[b*BlockBytes : (b+1)*BlockBytes : (b+1)*BlockBytes]
		for i := range d.nodes {
			n := &d.nodes[i]
			ct[n.row+4*n.col] = n.curByte
		}
		result.Ciphertexts[b] = ct
	}

	result.TotalCycles = net.Cycle() - start
	result.CyclesPerBlock = float64(result.TotalCycles) / float64(len(blocks))
	result.Stats = net.Stats()
	return &result, nil
}

// deliver is the network's OnEject callback: it copies the message into
// the destination's inbox, processed next cycle.
func (d *driver) deliver(p *noc.Packet) {
	if m, ok := p.Payload.(*message); ok {
		i := p.Dst - 1
		d.inbox[i] = append(d.inbox[i], *m)
	}
}

// send injects message m from node n to dst under tag.
func (d *driver) send(n *nodeState, dst graph.NodeID, tag string, m message) error {
	p, err := d.net.Inject(n.id, dst, 8, tag)
	if err != nil {
		return err
	}
	d.slab = append(d.slab, m)
	p.Payload = &d.slab[len(d.slab)-1]
	return nil
}

// runBlock encrypts one block, stepping the nodes in row-major order
// each cycle until every node is done and the network is empty.
func (d *driver) runBlock(b int, block []byte) error {
	start := d.net.Cycle()
	d.slab = d.slab[:0]
	// Load the block: node (r,c) holds in[r + 4c]; apply the initial
	// AddRoundKey locally.
	for i := range d.nodes {
		n := &d.nodes[i]
		n.curByte = block[n.row+4*n.col] ^ d.ks.RoundKeyByte(0, n.row, n.col)
		n.round = 1
		n.subDone = false
		n.shiftReady = false
		n.colHave = 0
		n.done = false
		n.finalSet = false
		n.held = n.held[:0]
		n.readyAt = start + int64(d.cfg.ComputeCycles)
	}
	for {
		if d.net.Cycle()-start > d.cfg.MaxCycles {
			return d.deadlock(b, start)
		}
		allDone := true
		for i := range d.nodes {
			n := &d.nodes[i]
			if err := d.step(n); err != nil {
				return err
			}
			if !n.done {
				allDone = false
			}
		}
		if allDone && d.net.Pending() == 0 {
			return nil
		}
		d.net.Step()
	}
}

// deadlock reports a block that overran MaxCycles, with every unfinished
// node's state.
func (d *driver) deadlock(b int, start int64) error {
	var stuck strings.Builder
	for i := range d.nodes {
		n := &d.nodes[i]
		if !n.done {
			fmt.Fprintf(&stuck, " node%d(round=%d sub=%v shift=%v col=%04b held=%d)",
				n.id, n.round, n.subDone, n.shiftReady, n.colHave, len(n.held))
		}
	}
	return fmt.Errorf("aes: block %d exceeded %d cycles from its start at cycle %d (possible deadlock); stuck:%s",
		b, d.cfg.MaxCycles, start, stuck.String())
}

// step advances one node's state machine at the current cycle: consume
// held and newly delivered messages, complete due computations, inject
// messages.
func (d *driver) step(n *nodeState) error {
	if n.done {
		return nil
	}
	// Held messages first, then this cycle's arrivals. The held pass
	// filters in place: consume writes a kept message at or below the
	// index it reads.
	held := n.held
	n.held = held[:0]
	if err := d.consume(n, held); err != nil {
		return err
	}
	i := n.id - 1
	if err := d.consume(n, d.inbox[i]); err != nil {
		return err
	}
	d.inbox[i] = d.inbox[i][:0]

	// Local compute completion: SubBytes then the ShiftRows send.
	if !n.subDone && d.net.Cycle() >= n.readyAt {
		n.subDone = true
		n.curByte = SBox(n.curByte)
		if n.row == 0 {
			// Shift by zero: own byte is already in place.
			n.shiftByte = n.curByte
			n.shiftReady = true
			if err := d.onShiftReady(n); err != nil {
				return err
			}
		} else {
			dst := NodeID(n.row, ((n.col-n.row)%4+4)%4)
			m := message{kind: msgShift, round: n.round, value: n.curByte}
			if err := d.send(n, dst, shiftTags[n.round], m); err != nil {
				return err
			}
		}
	}

	// MixColumns completion: own shifted byte plus the three peers.
	if n.shiftReady && n.round <= Rounds-1 && n.colHave|1<<n.row == 0xf {
		col := n.colBytes
		col[n.row] = n.shiftByte
		n.curByte = mixRow(col, n.row) ^ d.ks.RoundKeyByte(n.round, n.row, n.col)
		d.advanceRound(n)
	}

	// Final-round completion: the node must have computed its final byte
	// (incoming shift applied) AND finished its own SubBytes send.
	if n.round == Rounds && n.finalSet && n.subDone {
		n.curByte = n.outByte
		n.done = true
	}
	return nil
}

// consume applies msgs in order. Messages for future rounds are held
// back; messages for past rounds indicate a protocol bug.
func (d *driver) consume(n *nodeState, msgs []message) error {
	for _, m := range msgs {
		if m.round > n.round {
			n.held = append(n.held, m)
			continue
		}
		if m.round < n.round {
			return fmt.Errorf("aes: node %d got stale %v message for round %d during round %d",
				n.id, m.kind, m.round, n.round)
		}
		switch m.kind {
		case msgShift:
			n.shiftByte = m.value
			n.shiftReady = true
			if err := d.onShiftReady(n); err != nil {
				return err
			}
		case msgColumn:
			n.colBytes[m.srcRow] = m.value
			n.colHave |= 1 << m.srcRow
		}
	}
	return nil
}

// onShiftReady fires when the node's post-ShiftRows byte is in place:
// either broadcast it to the column (full rounds) or finish (last round).
func (d *driver) onShiftReady(n *nodeState) error {
	if n.round == Rounds {
		// Final round: no MixColumns. The result lands in outByte, not
		// curByte — the node's own SubBytes may not have run yet and still
		// needs the working byte. The node is also NOT done yet: it may
		// still owe its own shift byte to its row partner; step declares
		// done only once subDone also holds.
		n.outByte = n.shiftByte ^ d.ks.RoundKeyByte(Rounds, n.row, n.col)
		n.finalSet = true
		return nil
	}
	m := message{kind: msgColumn, round: n.round, srcRow: n.row, value: n.shiftByte}
	for r := 0; r < 4; r++ {
		if r == n.row {
			continue
		}
		if err := d.send(n, NodeID(r, n.col), colTags[n.round], m); err != nil {
			return err
		}
	}
	return nil
}

// advanceRound resets per-round state and schedules the next SubBytes.
func (d *driver) advanceRound(n *nodeState) {
	n.round++
	n.subDone = false
	n.shiftReady = false
	n.colHave = 0
	n.readyAt = d.net.Cycle() + int64(d.cfg.ComputeCycles)
}
