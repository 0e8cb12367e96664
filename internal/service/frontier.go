package service

// Pareto frontier synthesis as a service: POST /v1/frontier submissions
// run an ε-constraint energy-vs-latency sweep (internal/frontier) on the
// same bounded job queue as synthesis and simulation, and reuse the same
// coalescing and content-addressed result cache. The enumerator is
// deterministic at every parallelism setting and its canonical NDJSON
// document is exactly the concatenation of the streamed point lines plus
// the trailing summary, so a finished frontier is *the* answer for its
// request's content address: live streams, coalesced attachments and
// cache replays all observe byte-identical output.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/primitives"
)

// JobKindFrontier is the Status.Kind of frontier-sweep jobs.
const JobKindFrontier = "frontier"

// MaxFrontierPoints caps the ε-grid size a request may ask for; each
// grid point is a full branch-and-bound solve.
const MaxFrontierPoints = 64

// FrontierRequest is the body of POST /v1/frontier.
type FrontierRequest struct {
	// Graph is the application characterization graph to sweep.
	Graph *graph.Graph `json:"graph"`
	// Options are the per-point solve options. MaxLatency must be unset:
	// the sweep owns the per-point ε ceilings.
	Options RequestOptions `json:"options"`
	// Points is the ε-grid size including the unconstrained anchor
	// (0 = frontier.DefaultPoints, at most MaxFrontierPoints).
	Points int `json:"points,omitempty"`
	// Validate simulates each emitted point's architecture at a near-zero
	// injection rate and records the measured average latency (fixed
	// deterministic seed, so validated frontiers stay cacheable).
	Validate bool `json:"validate,omitempty"`

	// Wait marks the submission as attended (see Request.Wait). Not part
	// of the wire body.
	Wait bool `json:"-"`
}

// ParseFrontierRequest decodes and validates a frontier request body.
// Unknown fields, an empty graph, an out-of-range grid size and options
// the sweep cannot honor are all rejected — this is the surface
// FuzzFrontierRequest drives.
func ParseFrontierRequest(body []byte) (*FrontierRequest, error) {
	var req FrontierRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after request object")
	}
	if req.Graph == nil || req.Graph.NodeCount() == 0 {
		return nil, fmt.Errorf("empty graph")
	}
	if req.Points < 0 || req.Points > MaxFrontierPoints {
		return nil, fmt.Errorf("points %d out of range [0, %d]", req.Points, MaxFrontierPoints)
	}
	if req.Options.MaxLatency != 0 {
		return nil, fmt.Errorf("maxLatency cannot be set on a frontier request: the sweep assigns per-point ceilings")
	}
	if _, err := req.Options.ToOptions(); err != nil {
		return nil, err
	}
	return &req, nil
}

// FrontierKey returns the content address of a frontier request: a
// lowercase hex SHA-256 over the synthesis cache key of its per-point
// options (which already canonicalizes the frozen graph, the solve
// options and the library) plus the sweep's own coordinates, in a key
// domain disjoint from synthesize and simulate keys.
func FrontierKey(req *FrontierRequest, lib *primitives.Library) (string, error) {
	opts, err := req.Options.ToOptions()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte{3}) // frontier key domain; synthesize uses 1, simulate 2
	h.Write([]byte(CacheKey(req.Graph, opts, lib)))
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(int64(req.Points)))
	h.Write(buf[:])
	if req.Validate {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// submitFrontier admits one frontier-sweep request as Submit admits a
// synthesis. A Done job's Encoded bytes are the canonical NDJSON frontier
// document; while the job runs, emitted points accumulate on the job's
// stream buffer (Job.StreamSince) in the same byte form.
func (s *Service) submitFrontier(req *FrontierRequest) (admission, error) {
	if req == nil || req.Graph == nil || req.Graph.NodeCount() == 0 {
		return admission{}, fmt.Errorf("service: empty frontier graph")
	}
	if req.Points < 0 || req.Points > MaxFrontierPoints {
		return admission{}, fmt.Errorf("service: frontier points %d out of range [0, %d]", req.Points, MaxFrontierPoints)
	}
	opts, err := req.Options.ToOptions()
	if err != nil {
		return admission{}, err
	}
	if opts.MaxLatency != 0 {
		return admission{}, fmt.Errorf("service: frontier request cannot set MaxLatency")
	}
	opts.Library = repro.DefaultLibrary()
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	// The job deadline bounds the whole sweep; individual points inherit
	// the sweep context rather than carrying their own timers.
	opts.Timeout = 0

	key, err := FrontierKey(req, repro.DefaultLibrary())
	if err != nil {
		return admission{}, err
	}
	s.Metrics.jobSubmitted(JobKindFrontier)
	acg, points, validate := req.Graph, req.Points, req.Validate
	return s.submitKeyed(key, req.Wait, JobKindFrontier, func() *Job {
		job := s.newJobLocked(key, req.Wait)
		job.kind = JobKindFrontier
		job.opts.Timeout = timeout // run() reads the deadline from opts
		job.runFn = func(ctx context.Context) ([]byte, error) {
			fopts := frontier.Options{
				Points:   points,
				Synth:    opts,
				Validate: validate,
				Emit: func(p frontier.Point) {
					job.appendStream(frontier.MarshalPointLine(p))
				},
			}
			res, err := frontier.Enumerate(ctx, acg, fopts)
			if err != nil {
				return nil, err
			}
			job.appendStream(frontier.MarshalSummaryLine(res.Summary()))
			var buf bytes.Buffer
			if err := res.EncodeNDJSON(&buf); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		}
		return job
	})
}
