package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro"
	"repro/internal/noc"
	"repro/internal/randgraph"
	"repro/internal/service"
)

// referencePass ends every run with one fixed, seed-independent request
// through each layer. Its Section 5.2 AES comparison gives the
// aes_*_err_pts metrics of every workload; its frontier, simulate and
// service requests give a workload that never calls a layer a measured
// figure for it in the traced run. Every answer is checked: the AES
// cost, the library's one-call simulate path against the staged one,
// and each service answer against the library's.
func referencePass(ctx context.Context, r *runner, tr *trace) (*aesModel, error) {
	req := tr.request()
	root := tr.begin("reference.aes", 0, req)
	res, _, err := synthesize(ctx, tr, root, req, repro.AESACG(0.1), aesLinksOptions(r.nproc))
	if err != nil {
		tr.end(root)
		return nil, fmt.Errorf("AES synthesis: %w", err)
	}
	r.check("reference AES cost", checkSolve(res, 28))
	model, err := compareAES(tr, root, req, res)
	tr.end(root)
	if err != nil {
		return nil, err
	}

	fig5 := randgraph.PaperFig5(16)
	req = tr.request()
	root = tr.begin("reference.frontier", 0, req)
	front, err := enumerate(ctx, tr, root, req, fig5, frontierPoints, r.nproc)
	tr.end(root)
	if err != nil {
		return nil, err
	}

	sim := &noc.SimRequest{
		Archs:  []noc.SimArch{{BA: "64:2:1"}},
		Points: []noc.SimPoint{{Pattern: "uniform", Bits: 128, Rate: 0.01, WarmupCycles: 100, MeasureCycles: 300, Seed: 1}},
	}
	req = tr.request()
	root = tr.begin("reference.simulate", 0, req)
	b, err := buildBatch(tr, root, req, sim)
	var simBody []byte
	if err == nil {
		simBody, _, _, err = simulate(ctx, tr, root, req, sim, b, 0, len(b.Points), r.nproc, noc.NewNetworkPool())
	}
	tr.end(root)
	if err != nil {
		return nil, err
	}
	one, err := noc.RunSim(ctx, sim, 1)
	var buf bytes.Buffer
	if err == nil {
		err = one.EncodeJSON(&buf)
	}
	if err == nil && !bytes.Equal(buf.Bytes(), simBody) {
		err = fmt.Errorf("noc.RunSim answer differs from the batch built here")
	}
	r.check("reference simulate", err)

	opts, err := synthOptions.ToOptions()
	if err != nil {
		return nil, err
	}
	opts.Parallelism = r.nproc
	req = tr.request()
	root = tr.begin("reference.synthesize", 0, req)
	_, enc, err := synthesize(ctx, tr, root, req, fig5, opts)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	synthWant, err := withoutStats(enc)
	if err != nil {
		return nil, err
	}

	if err := probeService(ctx, r, tr, fig5, synthWant, sim, simBody, front); err != nil {
		return nil, err
	}
	return model, nil
}

// probeService submits the reference requests to a fresh daemon — the
// synthesis twice, so the second is a cache hit — and checks each
// answer against the library's.
func probeService(ctx context.Context, r *runner, tr *trace, g *repro.Graph, synthWant []byte, sim *noc.SimRequest, simWant, frontWant []byte) error {
	synthBody, err := json.Marshal(service.SynthesizeRequest{Graph: g, Options: synthOptions})
	if err != nil {
		return err
	}
	simBody, err := json.Marshal(sim)
	if err != nil {
		return err
	}
	frontBody, err := json.Marshal(service.FrontierRequest{Graph: g, Options: synthOptions, Points: frontierPoints})
	if err != nil {
		return err
	}
	d, err := startDaemon()
	if err != nil {
		return err
	}
	probes := []struct {
		path       string
		body, want []byte
	}{
		{"/v1/synthesize", synthBody, synthWant},
		{"/v1/synthesize", synthBody, synthWant},
		{"/v1/simulate", simBody, simWant},
		{"/v1/frontier", frontBody, frontWant},
	}
	var firstSynth []byte
	for i, p := range probes {
		req := tr.request()
		root := tr.begin("service.request", 0, req)
		rep, err := d.post(ctx, p.path, p.body)
		tr.end(root)
		if err == nil && tr != nil {
			err = d.traceJob(ctx, tr, root, req, rep.job)
		}
		if err == nil {
			got := rep.body
			switch i {
			case 0:
				firstSynth = got
				got, err = withoutStats(got)
			case 1:
				if rep.path != "cache" || !bytes.Equal(got, firstSynth) {
					err = fmt.Errorf("repeated synthesis answered via %q with different bytes", rep.path)
				}
				got, _ = withoutStats(got)
			}
			if err == nil && !bytes.Equal(got, p.want) {
				err = fmt.Errorf("answer differs from the library's")
			}
		}
		r.check("reference service "+p.path, err)
	}
	serr := d.scrape(ctx, tr)
	if err := d.close(); err != nil {
		return err
	}
	return serr
}
