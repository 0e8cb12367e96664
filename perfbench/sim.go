package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/noc"
)

// simSweep is the simulation-kernel workload. Set-up compiles one
// batch: a dense-table scale-free network and a large scale-free
// network, the latter twice — under all-pairs (uniform) demand, which
// routes through landmark trees, and under hotspot demand, which
// compiles sparsely. The timed loop then runs one rate ladder per
// request, in turn, and encodes its response.
type simSweep struct {
	cfg   config
	req   *noc.SimRequest
	spans [][2]int // point range of each ladder
	names []string // "<arch>/<pattern>" of each ladder
	batch *noc.Batch
	pool  *noc.NetworkPool
	want  [][]byte // response of each ladder, from the set-up run
}

// request builds the simulate request of a run from its seed.
func (s *simSweep) request(seed int64) *noc.SimRequest {
	small := fmt.Sprintf("%d:2:%d", s.cfg.simSmall, subSeed(seed, "sim-small", 0))
	large := fmt.Sprintf("%d:2:%d", s.cfg.simLarge, subSeed(seed, "sim-large", 0))
	req := &noc.SimRequest{Archs: []noc.SimArch{{Name: "small", BA: small}, {Name: "large-uniform", BA: large}, {Name: "large-hotspot", BA: large}}}
	s.spans, s.names = nil, nil
	for li, l := range s.cfg.ladders {
		arch := 0
		if l.large {
			arch = 1
			if l.pattern != "uniform" {
				arch = 2
			}
		}
		lo := len(req.Points)
		for ri, rate := range l.rates {
			req.Points = append(req.Points, noc.SimPoint{Arch: arch, Pattern: l.pattern, Bits: 128, Rate: rate,
				WarmupCycles: l.warmup, MeasureCycles: l.measure, Seed: subSeed(seed, "sim-point", li*16+ri)})
		}
		s.spans = append(s.spans, [2]int{lo, len(req.Points)})
		s.names = append(s.names, req.Archs[arch].Name+"/"+l.pattern)
	}
	return req
}

func (s *simSweep) setup(ctx context.Context, r *runner, tr *trace) error {
	s.req = s.request(r.seed)
	req := tr.request()
	root := tr.begin("setup", 0, req)
	b, err := buildBatch(tr, root, req, s.req)
	tr.end(root)
	if err != nil {
		return err
	}
	if tr != nil {
		// The traced run builds the batch stage by stage; its tables
		// must be the ones noc.BuildBatch compiles.
		ref, err := noc.BuildBatch(s.req)
		if err != nil {
			return err
		}
		for i := range ref.Archs {
			var err error
			if ref.Archs[i].Table.Fingerprint() != b.Archs[i].Table.Fingerprint() {
				err = fmt.Errorf("staged table of arch %d differs from noc.BuildBatch's", i)
			}
			r.check("staged batch build", err)
		}
	}
	s.batch, s.pool = b, noc.NewNetworkPool()
	// One untimed run of every ladder fills the network pool and the lazy
	// route caches, and records the response every later run must repeat.
	s.want = make([][]byte, len(s.spans))
	for l, sp := range s.spans {
		body, _, _, err := simulate(ctx, nil, 0, 0, s.req, s.batch, sp[0], sp[1], r.nproc, s.pool)
		if err != nil {
			return fmt.Errorf("ladder %d: %w", l, err)
		}
		s.want[l] = body
	}
	return nil
}

// measure runs whole rounds over the ladders until the window has
// elapsed.
func (s *simSweep) measure(ctx context.Context, r *runner, tr *trace, window time.Duration) (*phase, error) {
	ph := &phase{}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < window; round++ {
		for l, sp := range s.spans {
			req := tr.request()
			root := tr.begin("request", 0, req)
			t0 := time.Now()
			body, delivered, host, err := simulate(ctx, tr, root, req, s.req, s.batch, sp[0], sp[1], r.nproc, s.pool)
			ph.lat = append(ph.lat, time.Since(t0))
			ph.kind = append(ph.kind, s.names[l])
			tr.end(root)
			if err == nil && !bytes.Equal(body, s.want[l]) {
				err = fmt.Errorf("response differs from the set-up run")
			}
			r.check(fmt.Sprintf("ladder %d", l), err)
			ph.simPkts += delivered
			ph.simHost += host
		}
	}
	ph.elapsed = time.Since(start)
	return ph, nil
}

// verify reruns one ladder, chosen by the seed, on a single worker: the
// response must not depend on the worker count.
func (s *simSweep) verify(ctx context.Context, r *runner, _ *trace) error {
	l := int(uint64(r.seed) % uint64(len(s.spans)))
	sp := s.spans[l]
	body, _, _, err := simulate(ctx, nil, 0, 0, s.req, s.batch, sp[0], sp[1], 1, s.pool)
	if err == nil && !bytes.Equal(body, s.want[l]) {
		err = fmt.Errorf("ladder %d response at parallelism 1 differs from parallelism %d", l, r.nproc)
	}
	r.check("parallelism-independent response", err)
	return nil
}

func (s *simSweep) teardown() error { return nil }
