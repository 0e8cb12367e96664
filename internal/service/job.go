package service

import (
	"context"
	"sync"
	"time"

	"repro/internal/graph"

	repro "repro"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle: Queued -> Running -> one of Done / Failed / Canceled.
// Cache-hit jobs are born Done.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Job is one tracked synthesis submission. All fields beyond the
// immutable header are guarded by mu; Done-ness is additionally observable
// through the done channel so waiters never poll.
type Job struct {
	// ID is the service-unique job identifier.
	ID string
	// Key is the submission's content address (see CacheKey).
	Key string
	// Submitted is the accept time.
	Submitted time.Time

	svc  *Service
	acg  *graph.Graph
	opts repro.Options

	// kind discriminates the job families sharing the queue; the zero
	// value is a synthesis job. runFn, when set, replaces the solver
	// call: it produces the job's canonical encoded result (the simulate
	// path points it at noc.RunSim).
	kind  string
	runFn func(ctx context.Context) ([]byte, error)

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	state     State
	started   time.Time
	finished  time.Time
	encoded   []byte
	errMsg    string
	fromCache bool
	waiters   int
	detached  bool

	// stream is the append-only incremental output of streaming job
	// kinds (frontier points as they are proven non-dominated); streamCh
	// is closed and replaced on every append so readers can block for
	// growth. The buffer concatenates to the job's canonical encoding,
	// letting late or coalesced readers replay from offset zero.
	stream   []byte
	streamCh chan struct{}

	summaryOnce sync.Once
	summary     *ResultSummary
}

// finishCached completes a job immediately from cached bytes.
func (j *Job) finishCached(val []byte) {
	j.mu.Lock()
	j.state = StateDone
	j.encoded = val
	j.fromCache = true
	j.started = j.Submitted
	j.finished = time.Now()
	j.releaseInputsLocked()
	j.mu.Unlock()
	j.cancel()
	close(j.done)
}

// releaseInputsLocked drops the job's inputs once it is finished: it
// answers from its encoded bytes alone, and a retained job must not pin
// the ACG, the options, or the run closure that captures the whole
// request (a simulate job's networks and traffic). The caller holds mu.
func (j *Job) releaseInputsLocked() {
	j.acg, j.opts, j.runFn = nil, repro.Options{}, nil
}

// attach records one more submitter coalescing onto the job and returns
// the job's state at that moment. An unattended (async) submitter pins
// the job: it must run to completion even if every waiting client
// disconnects.
func (j *Job) attach(wait bool) State {
	j.mu.Lock()
	defer j.mu.Unlock()
	if wait {
		j.waiters++
	} else {
		j.detached = true
	}
	return j.state
}

// Release drops one attending waiter (the HTTP layer calls it when a
// waiting client disconnects). When the last waiter leaves a job nobody
// submitted asynchronously, the solve is canceled: its result has no
// remaining audience, and the worker is better spent on the queue. The
// abandoned job is also withdrawn from the in-flight index so a later
// identical submission starts a fresh solve instead of coalescing onto
// a doomed one.
//
// Lock order matches Submit: service mutex outside, job mutex inside.
func (j *Job) Release() {
	s := j.svc
	s.mu.Lock()
	j.mu.Lock()
	j.waiters--
	abandon := j.waiters <= 0 && !j.detached &&
		(j.state == StateQueued || j.state == StateRunning)
	if abandon {
		if j.state == StateQueued {
			// The worker will observe the state and finalize without
			// solving.
			j.state = StateCanceled
		}
		if s.inflight[j.Key] == j {
			delete(s.inflight, j.Key)
		}
	}
	j.mu.Unlock()
	s.mu.Unlock()
	if abandon {
		j.cancel()
	}
}

// appendStream publishes one chunk of incremental output and wakes
// blocked StreamSince readers.
func (j *Job) appendStream(chunk []byte) {
	j.mu.Lock()
	j.stream = append(j.stream, chunk...)
	if j.streamCh != nil {
		close(j.streamCh)
		j.streamCh = nil
	}
	j.mu.Unlock()
}

// StreamSince returns the incremental output beyond off, the new offset,
// and a channel that is closed the next time the stream grows. The
// returned slice is shared; treat it as read-only. Readers loop:
// consume the chunk, then select on the channel and Done().
func (j *Job) StreamSince(off int) (chunk []byte, newOff int, grown <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if off < 0 {
		off = 0
	}
	if off > len(j.stream) {
		off = len(j.stream)
	}
	chunk = j.stream[off:]
	if j.streamCh == nil {
		j.streamCh = make(chan struct{})
	}
	return chunk, len(j.stream), j.streamCh
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes or ctx expires.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// State returns the current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Encoded returns the canonical result bytes of a Done job (nil
// otherwise). The slice is shared; treat it as read-only.
func (j *Job) Encoded() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil
	}
	return j.encoded
}

// Err returns the failure or cancellation message, if any.
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// FromCache reports whether the job was served from the result cache.
func (j *Job) FromCache() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fromCache
}

// ResultSummary is the compact, human-oriented slice of a finished
// result, embedded in job status responses so dashboards and pollers
// need not fetch and decode the full canonical encoding.
type ResultSummary struct {
	Cost           float64 `json:"cost"`
	Matches        int     `json:"matches"`
	RemainderEdges int     `json:"remainderEdges"`
	Links          int     `json:"links"`
	NumVCs         int     `json:"numVCs"`
	NodesExplored  int     `json:"nodesExplored"`
	BranchesPruned int     `json:"branchesPruned"`
	TimedOut       bool    `json:"timedOut"`
}

// Status is the wire form of a job for GET /v1/jobs/{id}.
type Status struct {
	ID          string         `json:"id"`
	Key         string         `json:"key"`
	Kind        string         `json:"kind,omitempty"`
	State       State          `json:"state"`
	FromCache   bool           `json:"fromCache,omitempty"`
	SubmittedAt time.Time      `json:"submittedAt"`
	StartedAt   *time.Time     `json:"startedAt,omitempty"`
	FinishedAt  *time.Time     `json:"finishedAt,omitempty"`
	ElapsedSec  float64        `json:"elapsedSec,omitempty"`
	Error       string         `json:"error,omitempty"`
	Summary     *ResultSummary `json:"summary,omitempty"`
}

// Status snapshots the job. For Done jobs the summary is derived from the
// canonical encoding once and memoized.
func (j *Job) Status() Status {
	j.mu.Lock()
	st := Status{
		ID:          j.ID,
		Key:         j.Key,
		Kind:        j.kind,
		State:       j.state,
		FromCache:   j.fromCache,
		SubmittedAt: j.Submitted,
		Error:       j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
		if !j.started.IsZero() {
			st.ElapsedSec = j.finished.Sub(j.started).Seconds()
		}
	}
	// The summary decodes a synthesis result; other job kinds (simulate)
	// carry payloads with no compact view, so they skip it.
	done := j.state == StateDone && j.kind == ""
	enc := j.encoded
	j.mu.Unlock()

	if done {
		j.summaryOnce.Do(func() {
			res, err := repro.DecodeResult(enc, repro.DefaultLibrary())
			if err != nil {
				return
			}
			sum := &ResultSummary{
				Cost:           res.Decomposition.Cost,
				Matches:        len(res.Decomposition.Matches),
				NumVCs:         res.VCs.NumVCs,
				NodesExplored:  res.Stats.NodesExplored,
				BranchesPruned: res.Stats.BranchesPruned,
				TimedOut:       res.Stats.TimedOut,
			}
			if res.Decomposition.Remainder != nil {
				sum.RemainderEdges = res.Decomposition.Remainder.EdgeCount()
			}
			if res.Architecture != nil {
				sum.Links = res.Architecture.LinkCount()
			}
			j.summary = sum
		})
		st.Summary = j.summary
	}
	return st
}
