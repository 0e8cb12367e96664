package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro"
	"repro/internal/randgraph"
	"repro/internal/tgff"
)

// subSeed derives the seed of input k of a family from the run seed
// (splitmix64), so every generated input depends on the seed argument
// and distinct inputs get unrelated streams.
func subSeed(seed int64, family string, k int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k)
	for _, c := range []byte(family) {
		x = (x ^ uint64(c)) * 0x100000001b3
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// instance is one synthesis input of synth-cold.
type instance struct {
	name     string
	kind     string // the instance's family, named in the per-kind note
	acg      *repro.Graph
	opts     repro.Options
	wantCost float64 // expected decomposition cost; 0 = not fixed
	golden   string  // expected digest of the stats-free bytes; "" = none
	digest   string  // digest recorded by the set-up solve
}

// Digests of the canonical, stats-free result bytes of the three fixed
// instances. A change that alters these bytes changes what the library
// returns, and the benchmark counts every such result as incorrect.
const (
	goldenAESLinks  = "ae24b985b517b46f0b452d0258776539060ae7ccef6f03406d09314517eb1968"
	goldenAESEnergy = "c86455dc36f7fb742bf823e58f725fc9d8f07d94cbc6b65dfad19cf2e5cc2241"
	goldenFig5      = "ce3e5eedd17f5929ceef7e4f8b8cf02ed74d50a1252a02497a32ddb4e7e37bde"
)

func fixedInstances() []*instance {
	energy := aesLinksOptions(0)
	energy.Mode = repro.CostEnergy
	return []*instance{
		{name: "aes-links", kind: "aes-links", acg: repro.AESACG(0.1), opts: aesLinksOptions(0), wantCost: 28, golden: goldenAESLinks},
		{name: "aes-energy", kind: "aes-energy", acg: repro.AESACG(0.1), opts: energy, golden: goldenAESEnergy},
		{name: "fig5", kind: "fig5", acg: randgraph.PaperFig5(16), opts: linksOptions(), wantCost: 17, golden: goldenFig5},
	}
}

func linksOptions() repro.Options {
	return repro.Options{Mode: repro.CostLinks, Timeout: 60 * time.Second}
}

// synthCold is the solver workload: one client synthesizes one graph at
// a time, cold (a fresh match cache per solve), over the Figure 6a AES
// graph in both cost modes, the Figure 5 graph and seeded TGFF and
// scale-free graphs; each pass ends with the Section 5.2 AES comparison.
type synthCold struct {
	cfg   config
	fixed []*instance
	sets  [][]*instance
}

func (s *synthCold) setup(ctx context.Context, r *runner, _ *trace) error {
	s.fixed = fixedInstances()
	s.sets = make([][]*instance, s.cfg.synthSets)
	for k := range s.sets {
		for _, n := range s.cfg.tgffSizes {
			g, err := tgff.Generate(tgff.DefaultConfig(n, subSeed(r.seed, fmt.Sprint("tgff", n), k)))
			if err != nil {
				return err
			}
			s.sets[k] = append(s.sets[k], &instance{name: g.Name(), kind: fmt.Sprint("tgff-", n), acg: g, opts: linksOptions()})
		}
		for _, n := range s.cfg.baSizes {
			g, err := randgraph.BarabasiAlbert(n, 2, 8, 64, subSeed(r.seed, fmt.Sprint("ba", n), k))
			if err != nil {
				return err
			}
			s.sets[k] = append(s.sets[k], &instance{name: g.Name(), kind: fmt.Sprint("ba-", n), acg: g, opts: linksOptions()})
		}
	}
	// Record every instance's digest with a serial solve; the measured
	// requests run at full parallelism and must reproduce it.
	all := append([]*instance(nil), s.fixed...)
	for _, set := range s.sets {
		all = append(all, set...)
	}
	for _, in := range all {
		opts := in.opts
		opts.Parallelism = 1
		res, enc, err := synthesize(ctx, nil, 0, 0, in.acg, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		d, err := digestOf(enc)
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		in.digest = d
		r.check(in.name+" set-up solve", checkSolve(res, in.wantCost))
		if in.golden != "" {
			var err error
			if d != in.golden {
				err = fmt.Errorf("digest %s, want %s", d, in.golden)
			}
			r.check(in.name+" golden digest", err)
		}
	}
	return nil
}

// checkSolve fails a result the solver cut short or, when wantCost is
// not 0, one of another cost.
func checkSolve(res *repro.Result, wantCost float64) error {
	if res.Stats.TimedOut || res.Stats.Canceled {
		return fmt.Errorf("solve cut short")
	}
	if wantCost != 0 && res.Decomposition.Cost != wantCost {
		return fmt.Errorf("cost %g, want %g", res.Decomposition.Cost, wantCost)
	}
	return nil
}

// digestOf hashes the stats-free canonical bytes of a result.
func digestOf(enc []byte) (string, error) {
	b, err := withoutStats(enc)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// check verifies one measured request: expected cost, the recorded
// digest, and a lossless round trip through repro.DecodeResult.
func (in *instance) check(res *repro.Result, enc []byte) error {
	if err := checkSolve(res, in.wantCost); err != nil {
		return err
	}
	d, err := digestOf(enc)
	if err != nil {
		return err
	}
	if d != in.digest {
		return fmt.Errorf("digest %s, set-up solve gave %s", d, in.digest)
	}
	back, err := repro.DecodeResult(enc, nil)
	if err != nil {
		return err
	}
	again, err := back.EncodeJSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(again, enc) {
		return fmt.Errorf("bytes change across DecodeResult and EncodeJSON")
	}
	return nil
}

// measure runs whole passes until the window has elapsed, so every run
// holds the same mix of instances.
func (s *synthCold) measure(ctx context.Context, r *runner, tr *trace, window time.Duration) (*phase, error) {
	ph := &phase{}
	var first *aesModel
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < window; pass++ {
		var aesRes *repro.Result
		for _, in := range append(append([]*instance(nil), s.fixed...), s.sets[pass%len(s.sets)]...) {
			req := tr.request()
			root := tr.begin("request", 0, req)
			opts := in.opts
			opts.Parallelism = r.nproc
			t0 := time.Now()
			res, enc, err := synthesize(ctx, tr, root, req, in.acg, opts)
			ph.lat = append(ph.lat, time.Since(t0))
			ph.kind = append(ph.kind, in.kind)
			tr.end(root)
			if err == nil {
				err = in.check(res, enc)
			}
			r.check(in.name, err)
			if in.name == "aes-links" && err == nil {
				aesRes = res
			}
		}
		if aesRes == nil {
			return nil, fmt.Errorf("aes-links failed; the pass cannot run the AES comparison")
		}
		req := tr.request()
		root := tr.begin("aes.compare", 0, req)
		m, err := compareAES(tr, root, req, aesRes)
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("AES comparison: %w", err)
		}
		ph.simPkts += m.delivered
		ph.simHost += m.host
		if first == nil {
			first = m
		}
		r.check("AES comparison repeats", sameModel(first, m))
	}
	ph.elapsed = time.Since(start)
	return ph, nil
}

func sameModel(a, b *aesModel) error {
	if a.tputPct != b.tputPct || a.energyPct != b.energyPct || a.customCPB != b.customCPB {
		return fmt.Errorf("AES comparison changed between passes: %+v vs %+v", *a, *b)
	}
	return nil
}

func (s *synthCold) verify(context.Context, *runner, *trace) error { return nil }
func (s *synthCold) teardown() error                               { return nil }
