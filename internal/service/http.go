package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/noc"

	repro "repro"
)

// API wire types. The graph payload reuses the ACG JSON schema of
// cmd/nocsynth ({"name":..., "nodes":[...], "edges":[...]}), so existing
// input files post unchanged.

// SynthesizeRequest is the body of POST /v1/synthesize.
type SynthesizeRequest struct {
	Graph   *graph.Graph   `json:"graph"`
	Options RequestOptions `json:"options"`
}

// RequestOptions is the JSON view of the solve options a client may set.
// Fields mirror cmd/nocsynth's flags.
type RequestOptions struct {
	// Mode is "energy" (default) or "links".
	Mode string `json:"mode,omitempty"`
	// Tech selects the energy profile: "180nm" (default), "130nm",
	// "100nm".
	Tech string `json:"tech,omitempty"`
	// Grid places n cores on a near-square grid: [n, coreW, coreH, gap].
	// Empty means unit link lengths.
	Grid []float64 `json:"grid,omitempty"`
	// TimeoutMs bounds the solve (0 = server default; clamped to the
	// server maximum).
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// IsoTimeoutMs bounds each isomorphism enumeration (0 = none).
	IsoTimeoutMs int64 `json:"isoTimeoutMs,omitempty"`
	// MatchLimit widens per-primitive branching (0 = paper default).
	MatchLimit int `json:"matchLimit,omitempty"`
	// Parallelism sets branch-and-bound workers (0 = all CPUs).
	Parallelism int `json:"parallelism,omitempty"`
	// LinkBandwidthMbps / MaxBisectionMbps are the Section 4.2
	// feasibility constraints (0 = disabled).
	LinkBandwidthMbps float64 `json:"linkBandwidthMbps,omitempty"`
	MaxBisectionMbps  float64 `json:"maxBisectionMbps,omitempty"`
	// MaxLatency caps the volume-weighted average hop count of the
	// decomposition (0 = unconstrained). On /v1/frontier requests it must
	// stay unset: the sweep assigns per-point ceilings.
	MaxLatency float64 `json:"maxLatency,omitempty"`
}

// ToOptions resolves the wire options into solver options.
func (o RequestOptions) ToOptions() (repro.Options, error) {
	var opts repro.Options
	switch strings.ToLower(o.Mode) {
	case "", "energy":
		opts.Mode = repro.CostEnergy
	case "links":
		opts.Mode = repro.CostLinks
	default:
		return opts, fmt.Errorf("unknown mode %q (want energy or links)", o.Mode)
	}
	switch o.Tech {
	case "", "180nm":
		opts.Energy = repro.Tech180
	case "130nm":
		opts.Energy = repro.Tech130
	case "100nm":
		opts.Energy = repro.Tech100
	default:
		return opts, fmt.Errorf("unknown tech %q (want 180nm, 130nm or 100nm)", o.Tech)
	}
	if len(o.Grid) > 0 {
		if len(o.Grid) != 4 {
			return opts, fmt.Errorf("grid wants [n, coreW, coreH, gap], got %d values", len(o.Grid))
		}
		n := int(o.Grid[0])
		if float64(n) != o.Grid[0] || n < 1 {
			return opts, fmt.Errorf("grid core count %g not a positive integer", o.Grid[0])
		}
		opts.Placement = repro.GridPlacement(n, o.Grid[1], o.Grid[2], o.Grid[3])
	}
	if o.TimeoutMs < 0 || o.IsoTimeoutMs < 0 {
		return opts, fmt.Errorf("negative timeout")
	}
	if o.MaxLatency < 0 || math.IsNaN(o.MaxLatency) || math.IsInf(o.MaxLatency, 0) {
		return opts, fmt.Errorf("maxLatency %g not a finite non-negative number", o.MaxLatency)
	}
	opts.MaxLatency = o.MaxLatency
	opts.Timeout = time.Duration(o.TimeoutMs) * time.Millisecond
	opts.IsoTimeout = time.Duration(o.IsoTimeoutMs) * time.Millisecond
	opts.MatchLimit = o.MatchLimit
	opts.Parallelism = o.Parallelism
	opts.Constraints = repro.Constraints{
		LinkBandwidthMbps: o.LinkBandwidthMbps,
		MaxBisectionMbps:  o.MaxBisectionMbps,
	}
	return opts, nil
}

// SubmitResponse is the body of POST /v1/synthesize without ?wait=1.
type SubmitResponse struct {
	JobID string `json:"jobId"`
	Key   string `json:"key"`
	State State  `json:"state"`
	// Path reports how the submission was satisfied: "queued",
	// "coalesced" or "cache".
	Path string `json:"path"`
}

// Handler serves the service's HTTP API:
//
//	POST /v1/synthesize[?wait=1]  submit an ACG; with wait=1 the response
//	                              is the canonical result JSON
//	POST /v1/simulate[?wait=1]    submit a bulk simulation batch (body is
//	                              a noc.SimRequest); with wait=1 the
//	                              response is the canonical SimResponse
//	POST /v1/frontier[?wait=1]    submit an ε-constraint Pareto frontier
//	                              sweep; with wait=1 the response streams
//	                              non-dominated points as NDJSON lines the
//	                              moment each is proven, ending with a
//	                              summary record
//	GET  /v1/jobs/{id}            job status
//	GET  /v1/results/{key}        canonical result bytes by content address
//	GET  /healthz                 liveness + drain state
//	GET  /metrics                 Prometheus text metrics
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/synthesize", func(w http.ResponseWriter, r *http.Request) {
		s.handleSynthesize(w, r)
	})
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		s.handleSimulate(w, r)
	})
	mux.HandleFunc("POST /v1/frontier", func(w http.ResponseWriter, r *http.Request) {
		s.handleFrontier(w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.JobByID(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job")
			return
		}
		writeJSON(w, http.StatusOK, job.Status())
	})
	mux.HandleFunc("GET /v1/results/{key}", func(w http.ResponseWriter, r *http.Request) {
		val, ok, err := s.ResultByKey(r.PathValue("key"))
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if !ok {
			httpError(w, http.StatusNotFound, "no result for key")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(val)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		code := http.StatusOK
		if s.Draining() {
			status = "draining"
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, map[string]string{"status": status})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.Metrics.WritePrometheus(w)
	})
	return mux
}

func (s *Service) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	var req SynthesizeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Graph == nil || req.Graph.NodeCount() == 0 {
		httpError(w, http.StatusBadRequest, "empty graph")
		return
	}
	opts, err := req.Options.ToOptions()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	wait := r.URL.Query().Get("wait") != ""

	a, err := s.submit(Request{ACG: req.Graph, Options: opts, Wait: wait})
	s.respondSubmitted(w, r, a, wait, err)
}

func (s *Service) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req noc.SimRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	wait := r.URL.Query().Get("wait") != ""

	a, err := s.submitSimulate(SimulateRequest{Sim: &req, Wait: wait})
	s.respondSubmitted(w, r, a, wait, err)
}

func (s *Service) handleFrontier(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	req, err := ParseFrontierRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	req.Wait = r.URL.Query().Get("wait") != ""

	a, err := s.submitFrontier(req)
	if writeAdmission(w, a, req.Wait, err) {
		return
	}
	job := a.job

	// Attended frontier submission: stream the NDJSON document. Points
	// appear on the job's stream buffer the moment the sweep proves them
	// non-dominated; a cache hit (or a coalesced attachment to a job that
	// finishes first) writes the byte-identical stored document instead.
	w.Header().Set("Content-Type", "application/x-ndjson")
	if job.State() == StateDone {
		w.Write(job.Encoded())
		return
	}
	flusher, _ := w.(http.Flusher)
	off := 0
	for {
		chunk, newOff, grown := job.StreamSince(off)
		if len(chunk) > 0 {
			if _, werr := w.Write(chunk); werr != nil {
				job.Release()
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		off = newOff
		select {
		case <-grown:
		case <-job.Done():
			// Drain anything appended between the last read and
			// completion (the summary line, at minimum).
			chunk, _, _ := job.StreamSince(off)
			if len(chunk) > 0 {
				w.Write(chunk)
			}
			if st := job.Status(); st.State != StateDone {
				// The stream is already half-written, so a status code is
				// no longer available; emit a terminal NDJSON error record.
				msg, _ := json.Marshal(st.Error)
				fmt.Fprintf(w, "{\"error\":%s,\"state\":%q}\n", msg, st.State)
			}
			if flusher != nil {
				flusher.Flush()
			}
			return
		case <-r.Context().Done():
			job.Release()
			return
		}
	}
}

// writeAdmission starts the reply to a submission: it maps submission
// errors to status codes, sets the job headers, and answers an async
// submission with the job handle. The handle reports the state captured
// at admission, so State and Path always agree. It returns true when
// the reply is complete; an attended submission still needs its body.
func writeAdmission(w http.ResponseWriter, a admission, wait bool, err error) bool {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return true
	case errors.Is(err, ErrStore):
		httpError(w, http.StatusInternalServerError, err.Error())
		return true
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
		return true
	}

	w.Header().Set("X-Nocserve-Job", a.job.ID)
	w.Header().Set("X-Nocserve-Key", a.job.Key)
	w.Header().Set("X-Nocserve-Path", a.path)

	if wait {
		return false
	}
	code := http.StatusAccepted
	if a.state == StateDone {
		code = http.StatusOK
	}
	writeJSON(w, code, SubmitResponse{JobID: a.job.ID, Key: a.job.Key, State: a.state, Path: a.path})
	return true
}

// respondSubmitted finishes a submission handler: the admission reply
// (see writeAdmission), then, for an attended submission, a block until
// the job's canonical result bytes are ready.
func (s *Service) respondSubmitted(w http.ResponseWriter, r *http.Request, a admission, wait bool, err error) {
	if writeAdmission(w, a, wait, err) {
		return
	}

	// Attended submission: block until the job finishes, canceling our
	// stake if the client goes away first.
	job := a.job
	if err := job.Wait(r.Context()); err != nil {
		job.Release()
		// The client is gone; this write is best-effort.
		httpError(w, 499, "client closed request")
		return
	}
	st := job.Status()
	switch st.State {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(job.Encoded())
	case StateCanceled:
		httpError(w, http.StatusConflict, "job canceled")
	default:
		httpError(w, http.StatusInternalServerError, st.Error)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
