package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/noc"
	"repro/internal/randgraph"
	"repro/internal/service"
	"repro/internal/tgff"
)

// Request kinds of serve-mix.
const (
	kindSynth    = "synthesize"
	kindSim      = "simulate"
	kindFrontier = "frontier"
)

// Every block of ten submissions holds four synthesize requests over
// fresh graphs, two that repeat a graph of an earlier block (chosen with
// Zipf weights, so the first graphs are the most popular), three
// simulate and one frontier request, shuffled per block by the seed.
// The shares are exact in every run, whatever its length, so the
// latency percentiles always fall on the same kinds of request.
const (
	slotNew     = "new"
	slotRepeat  = "repeat"
	newPerBlock = 4
)

var blockMix = []string{slotNew, slotNew, slotNew, slotNew, slotRepeat, slotRepeat, kindSim, kindSim, kindSim, kindFrontier}

const frontierPoints = 4

// serveClients is the number of closed-loop clients (at most nproc).
const serveClients = 2

// serveMix is the daemon workload: closed-loop clients drive an
// in-process service over loopback HTTP with a seeded mix of
// synthesize, simulate and frontier submissions, all attended.
type serveMix struct {
	cfg  config
	seed int64

	d     *daemon
	gen   int  // daemons started so far
	fresh bool // d has not been measured yet

	replies []served // every answer of every window, for verify
}

// entry is one scheduled submission.
type entry struct {
	kind string
	id   string // equal ids are equal requests
	body []byte
	acg  *repro.Graph
	sim  *noc.SimRequest
}

// served is one answered (or failed) submission.
type served struct {
	i   int
	gen int
	rep *reply
	err error
}

// synthOptions are the wire options of every synthesize and frontier
// submission.
var synthOptions = service.RequestOptions{Mode: "links"}

// slots returns the shuffled block of submission block b.
func (s *serveMix) slots(b int) []string {
	perm := rand.New(rand.NewSource(subSeed(s.seed, "serve-block", b))).Perm(len(blockMix))
	out := make([]string, len(blockMix))
	for i, p := range perm {
		out[i] = blockMix[p]
	}
	return out
}

// entry returns submission i of the run: a pure function of the seed
// and i, so the clients and the replay agree on it.
func (s *serveMix) entry(i int) (*entry, error) {
	b, slot := i/len(blockMix), s.slots(i / len(blockMix))[i%len(blockMix)]
	switch {
	case slot == slotRepeat && b > 0:
		rng := rand.New(rand.NewSource(subSeed(s.seed, "serve-repeat", i)))
		k := int(rand.NewZipf(rng, 1.1, 1, uint64(newPerBlock*b-1)).Uint64())
		return s.entry(s.newIndex(k/newPerBlock, k%newPerBlock))
	case slot == slotNew || slot == slotRepeat:
		return s.entryOf(kindSynth, i)
	}
	return s.entryOf(slot, i)
}

// newIndex is the submission index of the j-th fresh synthesize slot of
// block b.
func (s *serveMix) newIndex(b, j int) int {
	for i, slot := range s.slots(b) {
		if slot == slotNew {
			if j == 0 {
				return b*len(blockMix) + i
			}
			j--
		}
	}
	panic("perfbench: block has fewer fresh synthesize slots than newPerBlock")
}

// entryOf builds a submission of the given kind from the seed and i.
func (s *serveMix) entryOf(kind string, i int) (*entry, error) {
	rng := rand.New(rand.NewSource(subSeed(s.seed, "serve-"+kind, i)))
	e := &entry{kind: kind, id: fmt.Sprintf("%s-%d", kind, i)}
	var err error
	switch kind {
	case kindSynth:
		n := s.cfg.synthNodes[0] + rng.Intn(s.cfg.synthNodes[1]-s.cfg.synthNodes[0]+1)
		if e.acg, err = randgraph.BarabasiAlbert(n, 2, 8, 64, rng.Int63()); err != nil {
			return nil, err
		}
		e.body, err = json.Marshal(service.SynthesizeRequest{Graph: e.acg, Options: synthOptions})
	case kindSim:
		n := s.cfg.simNodes[0] + rng.Intn(s.cfg.simNodes[1]-s.cfg.simNodes[0]+1)
		e.sim = &noc.SimRequest{
			Archs: []noc.SimArch{{BA: fmt.Sprintf("%d:2:%d", n, rng.Int63())}},
			Points: []noc.SimPoint{{Pattern: "uniform", Bits: 128, Rate: 0.002,
				WarmupCycles: 100, MeasureCycles: 300, Seed: rng.Int63()}},
		}
		e.body, err = json.Marshal(e.sim)
	case kindFrontier:
		if e.acg, err = tgff.Generate(tgff.DefaultConfig(s.cfg.frontierTGFF, rng.Int63())); err != nil {
			return nil, err
		}
		e.body, err = json.Marshal(service.FrontierRequest{Graph: e.acg, Options: synthOptions, Points: frontierPoints})
	}
	return e, err
}

// setup brings a daemon up and warms it with submissions of each kind
// that the schedule never repeats.
func (s *serveMix) setup(ctx context.Context, r *runner, _ *trace) error {
	s.seed = r.seed
	return s.start(ctx)
}

// warmIndex is where the warm-up submissions' inputs are drawn from,
// far beyond any schedule index a run reaches; set-up sends warmPerKind
// of each kind.
const (
	warmIndex   = 1 << 40
	warmPerKind = 2
)

func (s *serveMix) start(ctx context.Context) error {
	if s.d != nil {
		if err := s.d.close(); err != nil {
			return err
		}
	}
	d, err := startDaemon()
	if err != nil {
		return err
	}
	s.d, s.gen, s.fresh = d, s.gen+1, true
	for k := 0; k < warmPerKind; k++ {
		for _, kind := range []string{kindSynth, kindSim, kindFrontier} {
			e, err := s.entryOf(kind, warmIndex+k)
			if err != nil {
				return err
			}
			if _, err := d.post(ctx, "/v1/"+kind, e.body); err != nil {
				return fmt.Errorf("warm-up %s: %w", kind, err)
			}
		}
	}
	return nil
}

// measure runs the closed loop: each client submits the next scheduled
// request as soon as its previous one is answered, until the window
// closes. Every window gets a daemon of its own, so a traced window
// starts as cold as an untraced one.
func (s *serveMix) measure(ctx context.Context, r *runner, tr *trace, window time.Duration) (*phase, error) {
	if !s.fresh {
		if err := s.start(ctx); err != nil {
			return nil, err
		}
	}
	s.fresh = false
	clients := min(serveClients, r.nproc)
	var next atomic.Int64
	got := make([][]served, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				e, err := s.entry(i)
				if err != nil {
					got[c] = append(got[c], served{i: i, gen: s.gen, err: err})
					continue
				}
				req := tr.request()
				root := tr.begin("service.request", 0, req)
				rep, err := s.d.post(ctx, "/v1/"+e.kind, e.body)
				tr.end(root)
				if err == nil && tr != nil {
					err = s.d.traceJob(ctx, tr, root, req, rep.job)
				}
				got[c] = append(got[c], served{i: i, gen: s.gen, rep: rep, err: err})
			}
		}(c)
	}
	wg.Wait()
	ph := &phase{elapsed: time.Since(start)}
	if err := s.d.scrape(ctx, tr); err != nil {
		return nil, err
	}
	for _, list := range got {
		for _, sv := range list {
			s.replies = append(s.replies, sv)
			if sv.rep == nil {
				continue
			}
			ph.lat = append(ph.lat, sv.rep.latency)
			e, _ := s.entry(sv.i)
			ph.kind = append(ph.kind, e.kind+"/"+sv.rep.path)
			if e.kind == kindSim {
				var resp noc.SimResponse
				if err := json.Unmarshal(sv.rep.body, &resp); err == nil {
					for _, p := range resp.Points {
						ph.simPkts += p.Delivered
					}
				}
				ph.simHost += sv.rep.latency
			}
		}
	}
	return ph, nil
}

// verify replays every distinct submission through the library and
// checks each answer the daemon gave against it: synthesize results up
// to their timing statistics, simulate and frontier documents byte for
// byte. Within one daemon, every answer to one request — miss,
// coalesced or cache hit — must be the same bytes.
func (s *serveMix) verify(ctx context.Context, r *runner, tr *trace) error {
	byID := map[string][]served{}
	var order []string
	for _, sv := range s.replies {
		if sv.err != nil {
			r.check(fmt.Sprintf("request %d", sv.i), sv.err)
			continue
		}
		e, err := s.entry(sv.i)
		if err != nil {
			return err
		}
		if byID[e.id] == nil {
			order = append(order, e.id)
		}
		byID[e.id] = append(byID[e.id], sv)
	}
	// The replays are independent; nproc workers share them.
	ids := make(chan string)
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < r.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ids {
				if err := s.checkAnswers(ctx, r, tr, id, byID[id]); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	for _, id := range order {
		ids <- id
	}
	close(ids)
	wg.Wait()
	return firstErr
}

// checkAnswers replays one distinct request and checks every answer the
// daemons gave to it.
func (s *serveMix) checkAnswers(ctx context.Context, r *runner, tr *trace, id string, list []served) error {
	e, err := s.entry(list[0].i)
	if err != nil {
		return err
	}
	want, err := s.replay(ctx, r, tr, e)
	if err != nil {
		return fmt.Errorf("replaying %s: %w", id, err)
	}
	first := map[int][]byte{}
	for _, sv := range list {
		got := sv.rep.body
		var err error
		if prev, ok := first[sv.gen]; ok && !bytes.Equal(prev, got) {
			err = fmt.Errorf("%s answer (%s) differs from an earlier answer of the same daemon", id, sv.rep.path)
		}
		first[sv.gen] = got
		if err == nil && e.kind == kindSynth {
			got, err = withoutStats(got)
		}
		if err == nil && !bytes.Equal(got, want) {
			err = fmt.Errorf("%s answer (%s) differs from the library's", id, sv.rep.path)
		}
		r.check("serve "+id, err)
	}
	return nil
}

// replay computes the library's answer to e, split into stage spans
// when traced.
func (s *serveMix) replay(ctx context.Context, r *runner, tr *trace, e *entry) ([]byte, error) {
	req := tr.request()
	root := tr.begin("replay", 0, req)
	defer tr.end(root)
	switch e.kind {
	case kindSynth:
		opts, err := synthOptions.ToOptions()
		if err != nil {
			return nil, err
		}
		opts.Parallelism = r.nproc
		_, enc, err := synthesize(ctx, tr, root, req, e.acg, opts)
		if err != nil {
			return nil, err
		}
		return withoutStats(enc)
	case kindSim:
		b, err := buildBatch(tr, root, req, e.sim)
		if err != nil {
			return nil, err
		}
		body, _, _, err := simulate(ctx, tr, root, req, e.sim, b, 0, len(b.Points), r.nproc, noc.NewNetworkPool())
		return body, err
	default:
		return enumerate(ctx, tr, root, req, e.acg, frontierPoints, r.nproc)
	}
}

func (s *serveMix) teardown() error {
	if s.d == nil {
		return nil
	}
	err := s.d.close()
	s.d = nil
	return err
}
