package fft

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/noc"
)

// ACG builds the application characterization graph of the distributed
// n-point FFT over n nodes (node i+1 holds coefficient index i after the
// input bit-reversal, which is a local re-labeling and costs no traffic):
// for every butterfly stage s, node i exchanges one complex sample with
// node i XOR 2^(s-1) — the directed hypercube Q_log2(n), every edge
// carrying one sampleBits-bit message per transform.
func ACG(n, sampleBits int, bwPerBit float64) (*graph.Graph, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: size %d not a power of two >= 2", n)
	}
	g := graph.New(fmt.Sprintf("fft%d-acg", n))
	logN := bits.TrailingZeros(uint(n))
	vol := float64(sampleBits)
	for i := 0; i < n; i++ {
		for s := 0; s < logN; s++ {
			j := i ^ (1 << uint(s))
			g.AddEdge(graph.Edge{
				From: graph.NodeID(i + 1), To: graph.NodeID(j + 1),
				Volume: vol, Bandwidth: vol * bwPerBit,
			})
		}
	}
	return g, nil
}

// DistConfig mirrors the AES driver's execution parameters.
type DistConfig struct {
	// ComputeCycles models the butterfly arithmetic as a fixed delay.
	ComputeCycles int
	// SampleBits is the message size for one complex sample.
	SampleBits int
	// MaxCycles guards against hangs.
	MaxCycles int64
}

// DefaultDistConfig assumes 2x64-bit floating point samples.
func DefaultDistConfig() DistConfig {
	return DistConfig{ComputeCycles: 4, SampleBits: 128, MaxCycles: 1_000_000}
}

// DistResult reports a distributed transform.
type DistResult struct {
	// Output is the transform result, index k at position k.
	Output []complex128
	// TotalCycles is the simulated duration, counted from the cycle the
	// transform started at.
	TotalCycles int64
	// Stats snapshots network activity.
	Stats noc.Stats
}

type fftMsg struct {
	stage int
	value complex128
}

type fftNode struct {
	idx   int // 0-based coefficient index
	id    graph.NodeID
	value complex128

	stage   int // 1-based stage being processed
	sent    bool
	partner complex128
	havePtr bool
	readyAt int64
	held    []fftMsg
}

// TransformDistributed runs the distributed FFT on the simulator network,
// one complex sample per node (len(samples) nodes, numbered 1..n). The
// result is bit-for-bit the iterative FFT's output (identical operation
// order), and matches the direct DFT to floating-point tolerance.
func TransformDistributed(net *noc.Network, samples []complex128, cfg DistConfig) (*DistResult, error) {
	n := len(samples)
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: size %d not a power of two >= 2", n)
	}
	if net == nil {
		return nil, fmt.Errorf("fft: nil network")
	}
	if cfg.ComputeCycles < 0 || cfg.MaxCycles <= 0 || cfg.SampleBits <= 0 {
		return nil, fmt.Errorf("fft: bad config %+v", cfg)
	}
	logN := bits.TrailingZeros(uint(n))
	start := net.Cycle()

	nodes := make([]*fftNode, n)
	for i := 0; i < n; i++ {
		nodes[i] = &fftNode{
			idx:     i,
			id:      graph.NodeID(i + 1),
			value:   samples[bitrev(i, logN)], // input permutation is local
			stage:   1,
			readyAt: start + int64(cfg.ComputeCycles),
		}
	}

	inbox := make(map[graph.NodeID][]fftMsg)
	net.OnEject(func(p *noc.Packet) {
		if m, ok := p.Payload.(fftMsg); ok {
			inbox[p.Dst] = append(inbox[p.Dst], m)
		}
	})

	for {
		if net.Cycle()-start > cfg.MaxCycles {
			return nil, fmt.Errorf("fft: run exceeded %d cycles (possible deadlock)", cfg.MaxCycles)
		}
		done := 0
		for _, nd := range nodes {
			if nd.stage > logN {
				done++
				continue
			}
			if err := stepFFTNode(net, nd, inbox, cfg); err != nil {
				return nil, err
			}
		}
		if done == n && net.Pending() == 0 {
			break
		}
		net.Step()
	}

	out := make([]complex128, n)
	for _, nd := range nodes {
		out[nd.idx] = nd.value
	}
	return &DistResult{
		Output:      out,
		TotalCycles: net.Cycle() - start,
		Stats:       net.Stats(),
	}, nil
}

func stepFFTNode(net *noc.Network, nd *fftNode, inbox map[graph.NodeID][]fftMsg, cfg DistConfig) error {
	// Consume messages for the current stage; hold future stages.
	msgs := append(nd.held, inbox[nd.id]...)
	nd.held = nil
	inbox[nd.id] = nil
	for _, m := range msgs {
		switch {
		case m.stage == nd.stage:
			nd.partner = m.value
			nd.havePtr = true
		case m.stage > nd.stage:
			nd.held = append(nd.held, m)
		default:
			return fmt.Errorf("fft: node %d got stale stage-%d message in stage %d",
				nd.id, m.stage, nd.stage)
		}
	}

	// Send own value to this stage's partner once ready.
	if !nd.sent && net.Cycle() >= nd.readyAt {
		partnerIdx := nd.idx ^ (1 << uint(nd.stage-1))
		p, err := net.Inject(nd.id, graph.NodeID(partnerIdx+1), cfg.SampleBits,
			fmt.Sprintf("fft-s%d", nd.stage))
		if err != nil {
			return err
		}
		p.Payload = fftMsg{stage: nd.stage, value: nd.value}
		nd.sent = true
	}

	// Butterfly once both halves are in hand.
	if nd.sent && nd.havePtr {
		m := 1 << uint(nd.stage)
		half := m >> 1
		j := nd.idx & (half - 1)
		w := twiddle(j, m)
		if nd.idx&half == 0 {
			// Lower leg: u + w*t where t is the partner's (upper) value.
			nd.value = nd.value + w*nd.partner
		} else {
			// Upper leg: u - w*t where u is the partner's (lower) value.
			nd.value = nd.partner - w*nd.value
		}
		nd.stage++
		nd.sent = false
		nd.havePtr = false
		nd.readyAt = net.Cycle() + int64(cfg.ComputeCycles)
	}
	return nil
}
