package service

// Bulk simulation as a service: POST /v1/simulate submissions run many
// (architecture, pattern, rate) points through noc's batch engine on the
// same bounded job queue as synthesis, and reuse the same coalescing and
// content-addressed result cache. The batch engine is deterministic at
// every parallelism setting, so — exactly as for the solver — a finished
// response is *the* answer for its request's content address, identical
// concurrent submissions attach to one running batch, and repeats are
// served from the store.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/noc"
)

// JobKindSimulate is the Status.Kind of bulk-simulation jobs.
const JobKindSimulate = "simulate"

// SimulateRequest is one bulk-simulation submission.
type SimulateRequest struct {
	// Sim is the decoded wire request (architectures + points).
	Sim *noc.SimRequest
	// Timeout bounds the batch run; zero applies Config.DefaultTimeout,
	// and any value is clamped to Config.MaxTimeout.
	Timeout time.Duration
	// Wait marks the submission as attended (see Request.Wait).
	Wait bool
}

// SimulateKey returns the content address of a simulate request: a
// lowercase hex SHA-256 over its canonical encoding, in a key domain
// disjoint from synthesis keys. Parallelism and timeout are not part of
// the request — the batch answer is byte-identical at every worker
// count, and truncated runs are never cached — so they cannot split the
// address. A point's partitions field is kept for wire compatibility:
// only 0 and 1 are accepted (noc.SimRequest.Check), and the
// field stays in the canonical encoding so that cached results under
// either value remain addressable.
func SimulateKey(req *noc.SimRequest) (string, error) {
	enc, err := req.Canonical()
	if err != nil {
		return "", fmt.Errorf("service: simulate key: %w", err)
	}
	h := sha256.New()
	h.Write([]byte{2}) // simulate key domain; synthesize uses 1
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// SubmitSimulate accepts one bulk-simulation request, with the same
// (job, path, error) contract as Submit: finished on a cache hit,
// shared on coalescing, freshly queued otherwise. A Done job's Encoded
// bytes are the canonical noc.SimResponse JSON.
func (s *Service) SubmitSimulate(req SimulateRequest) (*Job, string, error) {
	a, err := s.submitSimulate(req)
	return a.job, a.path, err
}

func (s *Service) submitSimulate(req SimulateRequest) (admission, error) {
	if req.Sim == nil || len(req.Sim.Points) == 0 {
		return admission{}, fmt.Errorf("service: simulate request has no points")
	}
	if err := req.Sim.Check(); err != nil {
		return admission{}, err
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	key, err := SimulateKey(req.Sim)
	if err != nil {
		return admission{}, err
	}
	s.Metrics.jobSubmitted(JobKindSimulate)
	sim := req.Sim
	return s.submitKeyed(key, req.Wait, JobKindSimulate, func() *Job {
		job := s.newJobLocked(key, req.Wait)
		job.kind = JobKindSimulate
		job.opts.Timeout = timeout // run() reads the deadline from opts
		job.runFn = func(ctx context.Context) ([]byte, error) {
			res, err := noc.RunSim(ctx, sim, 0)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := res.EncodeJSON(&buf); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		}
		return job
	})
}
