package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"

	repro "repro"
)

func aesBody(t *testing.T) []byte {
	t.Helper()
	acg := repro.AESACG(0.1)
	body, err := json.Marshal(SynthesizeRequest{
		Graph: acg,
		Options: RequestOptions{
			Mode:      "links",
			Grid:      []float64{16, 1, 1, 0.2},
			TimeoutMs: 60_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestHTTPEndToEndAES is the acceptance test of the service layer: two
// concurrent identical AES submissions through the real HTTP API and the
// real solver produce byte-identical canonical results with exactly one
// solver invocation, and the result stays addressable by its content key.
func TestHTTPEndToEndAES(t *testing.T) {
	if testing.Short() {
		t.Skip("full AES synthesis")
	}
	var solves atomic.Int64
	var s *Service
	s = newStubService(t, Config{
		Workers: 2,
		Solve: func(ctx context.Context, acg *graph.Graph, opts repro.Options) (*repro.Result, error) {
			solves.Add(1)
			// The AES solve takes a few milliseconds, so the second
			// submission could otherwise arrive after it finished and
			// be served from the cache: hold the solve until that
			// submission has coalesced onto it.
			for deadline := time.Now().Add(5 * time.Second); s.Metrics.JobsCoalesced.Load() == 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			return repro.SynthesizeContext(ctx, acg, opts)
		},
	})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	body := aesBody(t)
	type reply struct {
		data []byte
		key  string
		path string
		code int
	}
	replies := make([]reply, 2)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/synthesize?wait=1", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("post %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			replies[i] = reply{
				data: data,
				key:  resp.Header.Get("X-Nocserve-Key"),
				path: resp.Header.Get("X-Nocserve-Path"),
				code: resp.StatusCode,
			}
		}(i)
	}
	wg.Wait()

	for i, r := range replies {
		if r.code != http.StatusOK {
			t.Fatalf("reply %d: status %d: %s", i, r.code, r.data)
		}
	}
	if !bytes.Equal(replies[0].data, replies[1].data) {
		t.Fatal("concurrent identical submissions returned different bytes")
	}
	if replies[0].key == "" || replies[0].key != replies[1].key {
		t.Fatalf("content keys differ: %q vs %q", replies[0].key, replies[1].key)
	}
	if got := solves.Load(); got != 1 {
		t.Fatalf("solver invocations = %d, want 1 (paths: %q, %q)", got, replies[0].path, replies[1].path)
	}

	// The decoded result must be the real AES decomposition.
	res, err := repro.DecodeResult(replies[0].data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decomposition.Cost != 28 {
		t.Fatalf("AES link cost = %g, want the paper's 28", res.Decomposition.Cost)
	}
	if err := res.Decomposition.CoverIsExact(repro.AESACG(0.1)); err != nil {
		t.Fatal(err)
	}

	// Content-address retrieval serves the same bytes.
	resp, err := http.Get(srv.URL + "/v1/results/" + replies[0].key)
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(stored, replies[0].data) {
		t.Fatalf("results endpoint: status %d, bytes equal %v", resp.StatusCode, bytes.Equal(stored, replies[0].data))
	}

	// A third submission is a pure cache hit.
	resp, err = http.Post(srv.URL+"/v1/synthesize?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	third, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Nocserve-Path") != "cache" {
		t.Fatalf("third submission path %q, want cache", resp.Header.Get("X-Nocserve-Path"))
	}
	if !bytes.Equal(third, replies[0].data) {
		t.Fatal("cached bytes differ")
	}
	if solves.Load() != 1 {
		t.Fatalf("cache hit ran a solve (solves=%d)", solves.Load())
	}

	// Metrics reflect the story.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"nocserve_solves_total 1",
		"nocserve_cache_hits_total 1",
		"nocserve_jobs_coalesced_total 1",
		"nocserve_solve_duration_seconds_count 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestHTTPJobLifecycle covers the async path: accept, poll, fetch.
func TestHTTPJobLifecycle(t *testing.T) {
	solver := newGatedSolver()
	s := newStubService(t, Config{Workers: 1, Solve: solver.solve})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	body, _ := json.Marshal(SynthesizeRequest{Graph: stubACG("life"), Options: RequestOptions{Mode: "links"}})
	resp, err := http.Post(srv.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.JobID == "" || sub.State != StateQueued {
		t.Fatalf("submit: %d %+v", resp.StatusCode, sub)
	}

	<-solver.started
	status := getStatus(t, srv.URL, sub.JobID)
	if status.State != StateRunning {
		t.Fatalf("state %q, want running", status.State)
	}
	close(solver.release)

	deadline := time.Now().Add(5 * time.Second)
	for {
		status = getStatus(t, srv.URL, sub.JobID)
		if status.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", status.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status.Summary == nil || status.Summary.Cost != 42 {
		t.Fatalf("summary = %+v", status.Summary)
	}
	if status.Key != sub.Key {
		t.Fatalf("key drifted: %q vs %q", status.Key, sub.Key)
	}
}

func getStatus(t *testing.T, base, id string) Status {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHTTPDrain: during a drain, health reports 503, new submissions are
// refused, and the in-flight job still completes.
func TestHTTPDrain(t *testing.T) {
	solver := newGatedSolver()
	s := New(Config{Workers: 1, Solve: solver.solve})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	body, _ := json.Marshal(SynthesizeRequest{Graph: stubACG("drainme"), Options: RequestOptions{}})
	resp, err := http.Post(srv.URL+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	<-solver.started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// Drain flips the flag synchronously under the service mutex; poll
	// briefly for the goroutine to get there.
	deadline := time.Now().Add(2 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/synthesize", "application/json",
		bytes.NewReader(mustJSON(t, SynthesizeRequest{Graph: stubACG("reject")})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d, want 503", resp.StatusCode)
	}

	close(solver.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	job, ok := s.JobByID(sub.JobID)
	if !ok || job.State() != StateDone {
		t.Fatalf("in-flight job dropped by drain (ok=%v)", ok)
	}
}

// TestHTTPBadRequests exercises the 4xx surface.
func TestHTTPBadRequests(t *testing.T) {
	s := newStubService(t, Config{Workers: 1, Solve: func(ctx context.Context, acg *graph.Graph, opts repro.Options) (*repro.Result, error) {
		return stubResult(1), nil
	}})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"garbage", "not json", http.StatusBadRequest},
		{"empty graph", `{"graph":{"nodes":[],"edges":[]}}`, http.StatusBadRequest},
		{"bad mode", `{"graph":{"nodes":[1,2],"edges":[{"from":1,"to":2}]},"options":{"mode":"nope"}}`, http.StatusBadRequest},
		{"bad tech", `{"graph":{"nodes":[1,2],"edges":[{"from":1,"to":2}]},"options":{"tech":"90nm"}}`, http.StatusBadRequest},
		{"bad grid", `{"graph":{"nodes":[1,2],"edges":[{"from":1,"to":2}]},"options":{"grid":[4]}}`, http.StatusBadRequest},
		{"unknown field", `{"graph":{"nodes":[1,2],"edges":[{"from":1,"to":2}]},"wat":1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+"/v1/synthesize", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	for _, url := range []string{"/v1/jobs/j99999999", "/v1/results/" + strings.Repeat("ab", 32)} {
		resp, err := http.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", url, resp.StatusCode)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHTTPWaitClientDisconnect: a waiting client that goes away releases
// its stake and the abandoned solve is canceled.
func TestHTTPWaitClientDisconnect(t *testing.T) {
	solver := newGatedSolver()
	s := newStubService(t, Config{Workers: 1, Solve: solver.solve})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	defer close(solver.release)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/synthesize?wait=1",
		bytes.NewReader(mustJSON(t, SynthesizeRequest{Graph: stubACG("gone")})))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	<-solver.started
	cancel() // client disconnects mid-wait
	if err := <-errc; err == nil {
		t.Fatal("expected canceled request error")
	}

	// The job loses its only waiter and must finish canceled.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.Metrics.JobsCanceled.Load() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned job never canceled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
