package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// daemon is an in-process service behind service.Handler on a loopback
// listener, with the HTTP client the benchmark drives it through.
type daemon struct {
	svc    *service.Service
	srv    *http.Server
	base   string
	client *http.Client
	served chan error
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{})
	d := &daemon{
		svc:    svc,
		srv:    &http.Server{Handler: service.Handler(svc)},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// close stops the listener and the service and waits for both.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	if cerr := d.svc.Close(60 * time.Second); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// reply is one answered submission.
type reply struct {
	body    []byte
	job     string // job ID
	path    string // queued, coalesced or cache
	latency time.Duration
}

// post submits body to an attended endpoint ("/v1/synthesize", ...) and
// reads the whole answer.
func (d *daemon) post(ctx context.Context, path string, body []byte) (*reply, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path+"?wait=1", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return &reply{body: b, job: resp.Header.Get("X-Nocserve-Job"), path: resp.Header.Get("X-Nocserve-Path"), latency: lat}, nil
}

func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return b, nil
}

// traceJob records the queue wait and the run of a request's job, as
// GET /v1/jobs/{id} reports them, as children of the request's span. A
// cache hit has no run and records neither.
func (d *daemon) traceJob(ctx context.Context, tr *trace, parent, req int, id string) error {
	b, err := d.get(ctx, "/v1/jobs/"+id)
	if err != nil {
		return err
	}
	var st service.Status
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		return nil
	}
	tr.record("service.queue_wait", parent, req, st.SubmittedAt, *st.StartedAt)
	tr.record("service.job_run", parent, req, *st.StartedAt, *st.FinishedAt)
	return nil
}

// scrape reads the cache hit ratio, the coalesced submissions and the
// solver invocations from /metrics into the trace's counters.
func (d *daemon) scrape(ctx context.Context, tr *trace) error {
	if tr == nil {
		return nil
	}
	b, err := d.get(ctx, "/metrics")
	if err != nil {
		return err
	}
	vals := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				vals[f[0]] = v
			}
		}
	}
	for _, k := range []string{"nocserve_cache_hit_ratio", "nocserve_jobs_coalesced_total", "nocserve_solves_total"} {
		if _, ok := vals[k]; !ok {
			return fmt.Errorf("/metrics has no %s", k)
		}
	}
	tr.count(func(c *counters) {
		c.svcHitRatio = vals["nocserve_cache_hit_ratio"]
		c.svcCoalesced += int64(vals["nocserve_jobs_coalesced_total"])
		c.svcSolves += int64(vals["nocserve_solves_total"])
	})
	return nil
}
