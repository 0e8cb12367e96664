// Package service is the synthesis-as-a-service layer: a long-running
// daemon core that accepts application characterization graphs over an
// HTTP/JSON API (cmd/nocserve), feeds them through a bounded job queue
// into a pool of workers calling the branch-and-bound synthesis pipeline,
// and memoizes finished results in a content-addressed cache keyed by the
// canonical hash of the frozen ACG plus the solve options.
//
// The cache turns the batch pipeline into a service that amortizes: the
// solver is deterministic (PR 1), so a completed result is *the* answer
// for its (graph, options) content address, and identical submissions —
// common under hub-dominated scale-free request mixes, which cluster
// around few distinct shapes — pay the decomposition cost once. Request
// coalescing extends the same idea to in-flight work: N concurrent
// identical submissions attach to one running solve and all observe the
// byte-identical canonical encoding of its result.
//
// Persistence is pluggable behind the Store interface (memory LRU, disk,
// tiered): the daemon core never touches storage directly, so backends
// can be swapped or stacked without changing queue or worker code.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/primitives"

	repro "repro"
)

// SolveFunc is the solver the workers invoke; production wiring points it
// at repro.SynthesizeContext, tests substitute counting or blocking
// stubs.
type SolveFunc func(ctx context.Context, acg *graph.Graph, opts repro.Options) (*repro.Result, error)

// Config tunes a Service.
type Config struct {
	// Workers is the solver pool size (<= 0 means GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; further
	// submissions are rejected with ErrQueueFull (<= 0 means 64).
	QueueDepth int
	// DefaultTimeout is the per-job solve deadline applied when a request
	// carries none (<= 0 means 60s).
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested deadline (<= 0 means 10m).
	MaxTimeout time.Duration
	// Store is the result cache backend (nil means an in-memory LRU).
	Store Store
	// Solve overrides the solver (nil means repro.SynthesizeContext).
	Solve SolveFunc
	// MaxJobs bounds the finished-job status retention (<= 0 means 4096).
	MaxJobs int
}

// Submission errors surfaced to the API layer.
var (
	// ErrQueueFull means the bounded queue is at capacity; the client
	// should back off and retry.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining means the service is shutting down and accepts no new
	// work.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrStore wraps result-store faults (I/O, corruption): a server
	// problem, not a client one — the HTTP layer maps it to 500.
	ErrStore = errors.New("service: result store fault")
)

// Service is the daemon core: queue, workers, cache, coalescing.
type Service struct {
	cfg     Config
	solve   SolveFunc
	store   Store
	Metrics Metrics

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu        sync.Mutex
	draining  bool
	queue     chan *Job
	jobs      map[string]*Job
	jobOrder  []*Job // submission order, for bounded retention
	evictFrom int    // first possibly-non-nil index of jobOrder
	inflight  map[string]*Job
	seq       int

	wg sync.WaitGroup
}

// New starts a service with cfg's worker pool running.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 4096
	}
	if cfg.Store == nil {
		cfg.Store = NewMemoryStore(0)
	}
	if cfg.Solve == nil {
		cfg.Solve = func(ctx context.Context, acg *graph.Graph, opts repro.Options) (*repro.Result, error) {
			return repro.SynthesizeContext(ctx, acg, opts)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		solve:      cfg.Solve,
		store:      cfg.Store,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, cfg.QueueDepth),
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.run(job)
			}
		}()
	}
	return s
}

// Store returns the result cache backend.
func (s *Service) Store() Store { return s.store }

// Request is one synthesis submission.
type Request struct {
	// ACG is the application graph to synthesize.
	ACG *graph.Graph
	// Options configure the solve. Options.Timeout is the per-job
	// deadline; zero applies Config.DefaultTimeout, and any value is
	// clamped to Config.MaxTimeout. Options.Library is overridden by the
	// default library.
	Options repro.Options
	// Wait marks the submission as attended: the caller will block on the
	// job, and if every attending caller disconnects before completion
	// the job is canceled. Unattended (async) submissions always run to
	// completion.
	Wait bool
}

// CacheKey returns the content address of a submission: a lowercase hex
// SHA-256 over the frozen ACG's CanonicalHash and every option that can
// change the solver's answer. The overall deadline and the parallelism
// knobs are deliberately excluded — the solver is deterministic at every
// worker count, and timed-out (partial) results are never cached — so
// requests differing only in those coordinates share one cache line.
// IsoTimeout *is* keyed: a truncated per-enumeration search can silently
// alter the answer without marking the result partial. MaxLatency is
// keyed (it changes the constrained optimum); InitialBound is not — it
// is unreachable from the wire API, where the frontier sweep owns
// warm-start seeding and caches only whole-frontier documents.
func CacheKey(acg *graph.Graph, opts repro.Options, lib *primitives.Library) string {
	h := sha256.New()
	var buf [8]byte
	wu := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(v float64) { wu(math.Float64bits(v)) }
	wb := func(v bool) {
		if v {
			wu(1)
		} else {
			wu(0)
		}
	}
	h.Write([]byte{2}) // key layout version (2: added MaxLatency)
	sum := acg.Freeze().CanonicalHash()
	h.Write(sum[:])

	wu(uint64(opts.Mode))
	wu(uint64(int64(opts.MatchLimit)))
	wu(uint64(opts.IsoTimeout)) // truncation can change the answer
	wb(opts.DisableBound)
	wf(opts.MaxLatency)
	wf(opts.Constraints.LinkBandwidthMbps)
	wf(opts.Constraints.MaxBisectionMbps)

	em := opts.Energy
	if em == (repro.EnergyModel{}) {
		em = repro.Tech180
	}
	wu(uint64(len(em.Name)))
	h.Write([]byte(em.Name))
	wf(em.SwitchBit)
	wf(em.LinkBitPerMM)
	wf(em.RepeaterSpacingMM)
	wf(em.RepeaterBit)
	wf(em.StaticPortMW)
	wf(em.VoltageV)
	wf(em.ClockMHz)

	if p := opts.Placement; p != nil {
		wu(1)
		wf(p.ChipW)
		wf(p.ChipH)
		cores := p.Cores()
		wu(uint64(len(cores)))
		for _, id := range cores {
			o, d := p.Origin(id), p.Dims(id)
			wu(uint64(uint32(id)))
			wf(o.X)
			wf(o.Y)
			wf(d.X)
			wf(d.Y)
		}
	} else {
		wu(0)
	}

	if lib == nil {
		lib = repro.DefaultLibrary()
	}
	wu(uint64(lib.Len()))
	for _, p := range lib.Primitives() {
		wu(uint64(len(p.Name)))
		h.Write([]byte(p.Name))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Submit accepts one synthesis request. The returned job is already
// finished on a cache hit, shared with earlier submitters when an
// identical job is in flight (coalescing), and freshly queued otherwise.
// The second return distinguishes those paths for logging and tests:
// "cache", "coalesced" or "queued".
func (s *Service) Submit(req Request) (*Job, string, error) {
	a, err := s.submit(req)
	return a.job, a.path, err
}

func (s *Service) submit(req Request) (admission, error) {
	if req.ACG == nil || req.ACG.NodeCount() == 0 {
		return admission{}, fmt.Errorf("service: empty ACG")
	}
	opts := req.Options
	opts.Library = repro.DefaultLibrary()
	if opts.Timeout <= 0 {
		opts.Timeout = s.cfg.DefaultTimeout
	}
	if opts.Timeout > s.cfg.MaxTimeout {
		opts.Timeout = s.cfg.MaxTimeout
	}
	key := CacheKey(req.ACG, opts, repro.DefaultLibrary())
	s.Metrics.jobSubmitted("")
	return s.submitKeyed(key, req.Wait, "", func() *Job {
		job := s.newJobLocked(key, req.Wait)
		job.acg = req.ACG
		job.opts = opts
		return job
	})
}

// admission is one submitter's view of its job: the job, how the
// submission was satisfied ("cache", "coalesced" or "queued") and the
// job's state at that moment. The state is taken under s.mu together
// with the path, so a worker that starts the job before the submitter
// replies cannot make the reply contradict its path.
type admission struct {
	job   *Job
	path  string
	state State
}

// submitKeyed is the submission core shared by every job kind: coalesce
// onto an in-flight job for the key, serve from the result cache, or
// register and enqueue the job build() constructs (build runs with s.mu
// held and must register via newJobLocked). kind labels the metrics.
func (s *Service) submitKeyed(key string, wait bool, kind string, build func() *Job) (admission, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.Metrics.jobRejected(kind)
		return admission{}, ErrDraining
	}
	// Coalesce before consulting the store: a running job means the store
	// has no value yet. Completion writes the store *before* removing the
	// in-flight entry (both under mu), so every submitter sees at least
	// one of them and a duplicate solve cannot slip through the gap.
	if job := s.inflight[key]; job != nil {
		s.Metrics.jobCoalesced(kind)
		return admission{job, "coalesced", job.attach(wait)}, nil
	}
	if val, ok, err := s.store.Get(key); err != nil {
		s.Metrics.StoreErrors.Add(1)
		return admission{}, fmt.Errorf("%w: cache read: %v", ErrStore, err)
	} else if ok {
		s.Metrics.cacheHit(kind)
		s.Metrics.jobDone(kind)
		job := build()
		job.finishCached(val)
		return admission{job, "cache", StateDone}, nil
	}
	job := build()
	select {
	case s.queue <- job:
	default:
		// Rejected: roll the job back out of the registry and release
		// its context so baseCtx does not accumulate children under
		// sustained overload.
		delete(s.jobs, job.ID)
		s.jobOrder = s.jobOrder[:len(s.jobOrder)-1]
		job.cancel()
		s.Metrics.jobRejected(kind)
		return admission{}, ErrQueueFull
	}
	s.Metrics.cacheMiss(kind)
	s.inflight[key] = job
	s.Metrics.jobQueuedDelta(kind, 1)
	return admission{job, "queued", StateQueued}, nil
}

// newJobLocked registers a fresh job shell; the caller holds s.mu and
// fills in the kind-specific fields (acg+opts, or runFn) before
// releasing it.
func (s *Service) newJobLocked(key string, wait bool) *Job {
	s.seq++
	ctx, cancel := context.WithCancel(s.baseCtx)
	job := &Job{
		ID:        fmt.Sprintf("j%08d", s.seq),
		Key:       key,
		Submitted: time.Now(),
		svc:       s,
		state:     StateQueued,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	if wait {
		job.waiters = 1
	} else {
		job.detached = true
	}
	s.jobs[job.ID] = job
	s.jobOrder = append(s.jobOrder, job)
	s.evictLocked()
	return job
}

// evictLocked drops the oldest finished jobs beyond the retention bound.
// The evictFrom cursor skips the nil slots of already-evicted entries,
// so at steady state (retention at cap, oldest job finished) one
// eviction is O(1) rather than a rescan of the whole order slice.
func (s *Service) evictLocked() {
	for len(s.jobs) > s.cfg.MaxJobs {
		for s.evictFrom < len(s.jobOrder) && s.jobOrder[s.evictFrom] == nil {
			s.evictFrom++
		}
		evicted := false
		for i := s.evictFrom; i < len(s.jobOrder); i++ {
			job := s.jobOrder[i]
			if job == nil {
				continue
			}
			job.mu.Lock()
			finished := job.state == StateDone || job.state == StateFailed || job.state == StateCanceled
			job.mu.Unlock()
			if finished {
				delete(s.jobs, job.ID)
				s.jobOrder[i] = nil
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything live; let the map grow rather than lose jobs
		}
		// Compact the order slice opportunistically.
		if len(s.jobOrder) > 2*s.cfg.MaxJobs {
			kept := s.jobOrder[:0]
			for _, j := range s.jobOrder {
				if j != nil {
					kept = append(kept, j)
				}
			}
			s.jobOrder = kept
			s.evictFrom = 0
		}
	}
}

// JobByID returns a retained job.
func (s *Service) JobByID(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	return job, ok
}

// ResultByKey returns the cached canonical result bytes for a content
// address.
func (s *Service) ResultByKey(key string) ([]byte, bool, error) {
	return s.store.Get(key)
}

// run executes one job on a worker goroutine.
func (s *Service) run(job *Job) {
	s.Metrics.jobQueuedDelta(job.kind, -1)
	job.mu.Lock()
	if job.state != StateQueued { // canceled while waiting in the queue
		job.mu.Unlock()
		s.finishJob(job, nil, nil, context.Canceled)
		return
	}
	job.state = StateRunning
	job.started = time.Now()
	opts := job.opts
	ctx := job.ctx
	job.mu.Unlock()

	s.Metrics.jobRunningDelta(job.kind, 1)
	defer s.Metrics.jobRunningDelta(job.kind, -1)

	solveCtx, cancel := context.WithTimeout(ctx, opts.Timeout)
	defer cancel()
	start := time.Now()
	var (
		res *repro.Result
		enc []byte
		err error
	)
	if job.runFn != nil {
		enc, err = job.runFn(solveCtx)
	} else {
		res, err = s.solve(solveCtx, job.acg, opts)
		if err == nil {
			enc, err = res.EncodeJSON()
		}
	}
	s.Metrics.ObserveSolve(time.Since(start))
	s.finishJob(job, res, enc, err)
}

// finishJob records the outcome, publishes the result to the cache, and
// releases coalesced waiters. Cache publication happens before the
// in-flight entry is removed (see Submit) and only for complete results:
// a deadline- or cancel-truncated decomposition is still returned to its
// submitters (with Stats.TimedOut/Canceled set in the payload, matching
// the CLI tools' Ctrl-C best-so-far semantics) but must not masquerade
// as the canonical answer for the key. A cache-write fault is counted,
// not fatal: the solve succeeded and its result belongs to the waiters.
func (s *Service) finishJob(job *Job, res *repro.Result, enc []byte, err error) {
	// Custom-run jobs (simulate) either complete deterministically or
	// return an error — any successful encoding is the canonical answer.
	// Solver jobs additionally require an untruncated result.
	cacheable := err == nil &&
		(job.runFn != nil || (res != nil && !res.Stats.TimedOut && !res.Stats.Canceled))
	if cacheable {
		if perr := s.store.Put(job.Key, enc); perr != nil {
			s.Metrics.StoreErrors.Add(1)
		}
	}

	s.mu.Lock()
	if s.inflight[job.Key] == job {
		delete(s.inflight, job.Key)
	}
	s.mu.Unlock()

	job.mu.Lock()
	job.releaseInputsLocked()
	job.finished = time.Now()
	switch {
	case err == nil:
		job.state = StateDone
		job.encoded = enc
		s.Metrics.jobDone(job.kind)
	case errors.Is(err, context.Canceled), job.ctx.Err() != nil:
		// The second clause catches cancellations the solver reports as
		// a domain error ("no feasible decomposition (... canceled)")
		// rather than the context sentinel: if the job's own context was
		// canceled, the job was canceled.
		job.state = StateCanceled
		job.errMsg = "canceled"
		s.Metrics.jobCanceled(job.kind)
	default:
		job.state = StateFailed
		job.errMsg = err.Error()
		s.Metrics.jobFailed(job.kind)
	}
	job.mu.Unlock()
	job.cancel() // release the job context's resources
	close(job.done)
}

// Draining reports whether the service has begun shutting down.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops accepting new jobs and waits until every queued and running
// job has finished — in-flight work is completed, not dropped. If ctx
// expires first, the remaining solves are force-canceled (they still
// finish, with their jobs marked canceled) and ctx's error is returned.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // workers finish the backlog, then exit
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Close drains with the given grace period and releases the store.
func (s *Service) Close(grace time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	derr := s.Drain(ctx)
	s.baseCancel()
	if cerr := s.store.Close(); cerr != nil && derr == nil {
		derr = cerr
	}
	return derr
}
