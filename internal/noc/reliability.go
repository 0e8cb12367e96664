package noc

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
)

// ReliabilityConfig parameterizes a reliability sweep: the same
// latency-throughput characterization repeated across a ladder of link
// fault rates, each rate failing a deterministic random subset of the
// architecture's links (connectivity-preserving, see RandomLinkFaults).
type ReliabilityConfig struct {
	// Sweep is the per-fault-rate sweep configuration; its Faults field
	// is overwritten per ladder step (Routing is honored as configured).
	Sweep SweepConfig
	// FaultRates is the fraction-of-links-failed ladder; 0 is allowed
	// (the pristine baseline) and each rate must be in [0, 1].
	FaultRates []float64
	// FaultSeed makes the failed-link choice deterministic; each ladder
	// step derives its own seed from it.
	FaultSeed int64
}

// ReliabilityPoint is the characterization at one fault rate.
type ReliabilityPoint struct {
	// FaultRate is the configured fraction of links failed; FailedLinks
	// the achieved count (connectivity preservation can round down).
	FaultRate   float64 `json:"faultRate"`
	FailedLinks int     `json:"failedLinks"`
	// Faults is the canonical spec of the injected fault map.
	Faults string `json:"faults,omitempty"`
	// Sweep is the full latency-throughput result under these faults.
	Sweep *SweepResult `json:"sweep"`
	// DeliveredFraction is delivered / generated over the whole ladder's
	// measurement windows, where generated counts injections the fault
	// map refused (Blocked) as well as accepted ones — the headline
	// reliability number. An oblivious network that refuses every packet
	// whose compiled route is dead scores the loss here; an adaptive one
	// that carries them around the fault earns the credit.
	DeliveredFraction float64 `json:"deliveredFraction"`
	// SaturationRate echoes the sweep's divergence point (0 = never
	// saturated); ZeroLoadLatency is the mean latency at the lowest rate;
	// PeakAccepted the highest accepted throughput across the ladder.
	SaturationRate  float64 `json:"saturationRate"`
	ZeroLoadLatency float64 `json:"zeroLoadLatency"`
	PeakAccepted    float64 `json:"peakAccepted"`
}

// ReliabilityResult is the latency/throughput-vs-fault-rate surface of
// one (architecture, pattern, routing mode) triple.
type ReliabilityResult struct {
	Architecture string             `json:"architecture"`
	Pattern      string             `json:"pattern"`
	Routing      string             `json:"routing"`
	FaultSeed    int64              `json:"faultSeed"`
	Points       []ReliabilityPoint `json:"points"`
}

// EncodeJSON writes the canonical indented JSON form of the result;
// deterministic for a fixed (architecture, config).
func (r *ReliabilityResult) EncodeJSON(w io.Writer) error {
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

// ReliabilitySweep runs the fault-rate ladder: for each rate it fails a
// deterministic random, connectivity-preserving subset of the
// architecture's links and re-runs the full injection-rate sweep (Sweep)
// on the degraded network. The faults are drawn from arch.Arch, the
// topology every simulated network is built over. Deterministic end to
// end for fixed seeds.
func ReliabilitySweep(ctx context.Context, arch BatchArch, cfg ReliabilityConfig) (*ReliabilityResult, error) {
	if arch.Arch == nil {
		return nil, fmt.Errorf("noc: reliability sweep needs an architecture")
	}
	if len(cfg.FaultRates) == 0 {
		return nil, fmt.Errorf("noc: reliability sweep needs a fault-rate ladder")
	}
	res := &ReliabilityResult{
		Architecture: arch.Arch.Name,
		Routing:      cfg.Sweep.Routing.String(),
		FaultSeed:    cfg.FaultSeed,
	}
	for i, rate := range cfg.FaultRates {
		fm, err := RandomLinkFaults(arch.Arch, rate, PointSeed(cfg.FaultSeed, i))
		if err != nil {
			return nil, err
		}
		scfg := cfg.Sweep
		scfg.Faults = nil
		if fm.Len() > 0 {
			scfg.Faults = fm
		}
		sres, err := Sweep(ctx, arch, scfg)
		if err != nil {
			return nil, fmt.Errorf("noc: reliability fault rate %g: %w", rate, err)
		}
		pt := ReliabilityPoint{
			FaultRate:      rate,
			FailedLinks:    fm.Len(),
			Faults:         fm.String(),
			Sweep:          sres,
			SaturationRate: sres.SaturationRate,
		}
		var generated, delivered int64
		for j, rp := range sres.Points {
			if j == 0 {
				pt.ZeroLoadLatency = rp.AvgLatency
			}
			generated += rp.Injected + rp.Blocked
			delivered += rp.Delivered
			if rp.Accepted > pt.PeakAccepted {
				pt.PeakAccepted = rp.Accepted
			}
		}
		if generated > 0 {
			pt.DeliveredFraction = float64(delivered) / float64(generated)
		}
		res.Points = append(res.Points, pt)
		if res.Pattern == "" {
			res.Pattern = sres.Pattern
		}
	}
	return res, nil
}
