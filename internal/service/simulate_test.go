package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/noc"
)

func simBody(t *testing.T) ([]byte, *noc.SimRequest) {
	t.Helper()
	req := &noc.SimRequest{
		Archs: []noc.SimArch{
			{Name: "mesh4x4", Mesh: "4x4"},
			{Name: "scalefree", BA: "24:2:3"},
		},
		Points: []noc.SimPoint{
			{Arch: 0, Pattern: "uniform", Bits: 128, Rate: 0.02, WarmupCycles: 100, MeasureCycles: 400, Seed: 1},
			{Arch: 1, Pattern: "uniform", Bits: 96, Rate: 0.05, WarmupCycles: 100, MeasureCycles: 400, Seed: 3, IncludeStats: true},
			{Arch: 0, Pattern: "transpose", Bits: 128, Rate: 0.25, WarmupCycles: 100, MeasureCycles: 400, Seed: 4},
		},
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body, req
}

// TestHTTPSimulate is the /v1/simulate acceptance test: the endpoint's
// bytes equal a local -parallel 1 batch run of the same request, a
// repeat submission is served from the content-addressed cache, and the
// cached bytes stay addressable under /v1/results/{key}.
func TestHTTPSimulate(t *testing.T) {
	s := newStubService(t, Config{Workers: 2})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	body, req := simBody(t)
	res, err := noc.RunSim(context.Background(), req, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.EncodeJSON(&want); err != nil {
		t.Fatal(err)
	}

	post := func() ([]byte, string, string, int) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/simulate?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return data, resp.Header.Get("X-Nocserve-Key"), resp.Header.Get("X-Nocserve-Path"), resp.StatusCode
	}

	got, key, path, code := post()
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	if path != "queued" {
		t.Fatalf("first submission path %q, want queued", path)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("endpoint bytes diverge from local -parallel 1 run:\nendpoint: %s\nlocal:    %s", got, want.Bytes())
	}

	again, key2, path2, code2 := post()
	if code2 != http.StatusOK || !bytes.Equal(again, got) {
		t.Fatalf("repeat submission: status %d, bytes equal %v", code2, bytes.Equal(again, got))
	}
	if path2 != "cache" {
		t.Fatalf("repeat submission path %q, want cache", path2)
	}
	if key2 != key {
		t.Fatalf("content keys differ across submissions: %q vs %q", key, key2)
	}

	resp, err := http.Get(srv.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	byKey, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(byKey, got) {
		t.Fatalf("results-by-key: status %d, bytes equal %v", resp.StatusCode, bytes.Equal(byKey, got))
	}
}

// TestHTTPSimulateAsync covers the detached path: submission returns a
// job handle, the job reaches Done with kind "simulate", and no summary
// decode is attempted on the simulate payload.
func TestHTTPSimulateAsync(t *testing.T) {
	s := newStubService(t, Config{Workers: 2})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	body, _ := simBody(t)
	resp, err := http.Post(srv.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d", resp.StatusCode)
	}

	job, ok := s.JobByID(sub.JobID)
	if !ok {
		t.Fatalf("job %s not retained", sub.JobID)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := job.Status()
	if st.State != StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	if st.Kind != JobKindSimulate {
		t.Fatalf("job kind %q, want %q", st.Kind, JobKindSimulate)
	}
	if st.Summary != nil {
		t.Fatal("simulate job carries a synthesis summary")
	}
	if len(job.Encoded()) == 0 {
		t.Fatal("done simulate job has no encoded result")
	}
}

// TestHTTPSimulateBadRequest maps malformed bodies to 400, not 500.
func TestHTTPSimulateBadRequest(t *testing.T) {
	s := newStubService(t, Config{Workers: 1})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	// Request-shape errors (partitions other than 0 or 1, cycle windows
	// above noc.MaxTraceCycles, packets of more flits than that and
	// configs over the kernel's size limits included) reject at submit
	// with 400. Deeper build errors
	// (an unknown pattern) only surface when the worker builds the batch,
	// so they fail the job — the wait path reports that as 500 with the
	// build error, matching how a failed solve is reported.
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"not json":      {"{", http.StatusBadRequest},
		"unknown field": {`{"archs":[],"points":[],"bogus":1}`, http.StatusBadRequest},
		"no points":     {`{"archs":[{"mesh":"4x4"}],"points":[]}`, http.StatusBadRequest},
		"bad pattern": {`{"archs":[{"mesh":"4x4"}],"points":[{"arch":0,"pattern":"zigzag","bits":128,"rate":0.1,"warmupCycles":10,"measureCycles":50,"seed":1}]}`,
			http.StatusInternalServerError},
		"partitions 2": {`{"archs":[{"mesh":"4x4"}],"points":[{"arch":0,"pattern":"uniform","bits":128,"rate":0.1,"warmupCycles":10,"measureCycles":50,"seed":1,"partitions":2}]}`,
			http.StatusBadRequest},
		"partitions -1": {`{"archs":[{"mesh":"4x4"}],"points":[{"arch":0,"pattern":"uniform","bits":128,"rate":0.1,"warmupCycles":10,"measureCycles":50,"seed":1,"partitions":-1}]}`,
			http.StatusBadRequest},
		"horizon above bound": {`{"archs":[{"mesh":"4x4"}],"points":[{"arch":0,"pattern":"uniform","bits":128,"rate":0.1,"warmupCycles":10,"measureCycles":100000000,"seed":1}]}`,
			http.StatusBadRequest},
		"horizon overflow": {`{"archs":[{"mesh":"4x4"}],"points":[{"arch":0,"pattern":"uniform","bits":128,"rate":0.1,"warmupCycles":9223372036854775807,"measureCycles":9223372036854775807,"seed":1}]}`,
			http.StatusBadRequest},
		"packet flit overflow": {`{"archs":[{"mesh":"4x4"}],"points":[{"arch":0,"pattern":"uniform","bits":9223372036854775807,"rate":0.1,"warmupCycles":10,"measureCycles":50,"seed":1}]}`,
			http.StatusBadRequest},
		"oversized config": {`{"archs":[{"mesh":"4x4"}],"config":{"numVCs":65536,"bufferFlits":65536},"points":[{"arch":0,"pattern":"uniform","bits":128,"rate":0.1,"warmupCycles":10,"measureCycles":50,"seed":1}]}`,
			http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+"/v1/simulate?wait=1", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d: %s", name, resp.StatusCode, tc.want, data)
		}
	}
}

// TestSimulatePartitionsContentAddress pins the partitions wire field:
// 0 (omitted) and 1 both run the serial kernel and answer
// byte-identically, each has a fixed content address (so results cached
// under either stay addressable), and any other value is rejected with
// noc.ErrPartitions before a job is queued.
func TestSimulatePartitionsContentAddress(t *testing.T) {
	mk := func(parts int) *noc.SimRequest {
		return &noc.SimRequest{
			Archs:  []noc.SimArch{{Mesh: "6x6"}},
			Config: &noc.SimConfig{BufferFlits: 16},
			Points: []noc.SimPoint{{
				Arch: 0, Pattern: "transpose", Bits: 64, Rate: 0.02,
				WarmupCycles: 30, MeasureCycles: 100, Seed: 9,
				IncludeStats: true, Partitions: parts,
			}},
		}
	}
	wantKey := map[int]string{
		0: "42ad4bc7e965f3a772fc4be67b728ff774d9f4d25a54376da75670a2eed99ade",
		1: "06d818f52b13504eadbd984b91feab494d96f4f40fbebdb8510dc4300db9b41c",
	}
	var encoded [2]string
	for parts, want := range wantKey {
		key, err := SimulateKey(mk(parts))
		if err != nil {
			t.Fatal(err)
		}
		if key != want {
			t.Errorf("partitions %d: key %s, want %s", parts, key, want)
		}
		res, err := noc.RunSim(context.Background(), mk(parts), 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		encoded[parts] = buf.String()
	}
	if encoded[0] != encoded[1] {
		t.Fatalf("partitions 0 and 1 answer differently:\n%s\nvs\n%s", encoded[0], encoded[1])
	}

	s := newStubService(t, Config{Workers: 1})
	for _, parts := range []int{2, -1} {
		if _, err := noc.RunSim(context.Background(), mk(parts), 1); !errors.Is(err, noc.ErrPartitions) {
			t.Errorf("RunSim partitions %d: %v", parts, err)
		}
		job, _, err := s.SubmitSimulate(SimulateRequest{Sim: mk(parts)})
		if !errors.Is(err, noc.ErrPartitions) || job != nil {
			t.Errorf("SubmitSimulate partitions %d: job %v, err %v", parts, job, err)
		}
	}
	if n := s.Metrics.JobsSubmitted.Load(); n != 0 {
		t.Errorf("%d rejected submissions were admitted", n)
	}
}

// TestSimulateRejectsWindowsBeforeQueueing: a point whose
// warmup+measure horizon exceeds noc.MaxTraceCycles (or overflows) is
// refused with noc.ErrWindows at submission, before any job exists.
func TestSimulateRejectsWindowsBeforeQueueing(t *testing.T) {
	s := newStubService(t, Config{Workers: 1})
	for _, w := range [][2]int64{{1, noc.MaxTraceCycles}, {math.MaxInt64, 1}, {0, 0}} {
		req := &noc.SimRequest{
			Archs: []noc.SimArch{{Mesh: "4x4"}},
			Points: []noc.SimPoint{{
				Arch: 0, Pattern: "uniform", Bits: 64, Rate: 0.02,
				WarmupCycles: w[0], MeasureCycles: w[1], Seed: 1,
			}},
		}
		job, _, err := s.SubmitSimulate(SimulateRequest{Sim: req})
		if !errors.Is(err, noc.ErrWindows) || job != nil {
			t.Errorf("windows %v: job %v, err %v", w, job, err)
		}
	}
	if n := s.Metrics.JobsSubmitted.Load(); n != 0 {
		t.Errorf("%d rejected submissions were admitted", n)
	}
}

// TestSimulateRejectsOverlongPacketsBeforeQueueing: a point whose
// packets would exceed noc.MaxTraceCycles flits (MaxInt64 bits used to
// overflow the flit count and run as an undeliverable point) fails
// submission with noc.ErrConfig and queues nothing.
func TestSimulateRejectsOverlongPacketsBeforeQueueing(t *testing.T) {
	s := newStubService(t, Config{Workers: 1})
	for _, c := range []struct{ bits, flitBits int }{
		{math.MaxInt64, 0},
		{math.MaxInt64, 1},
		{int(noc.MaxTraceCycles), 1},
	} {
		req := &noc.SimRequest{
			Archs:  []noc.SimArch{{Mesh: "4x4"}},
			Config: &noc.SimConfig{FlitBits: c.flitBits},
			Points: []noc.SimPoint{{
				Arch: 0, Pattern: "uniform", Bits: c.bits, Rate: 0.1,
				WarmupCycles: 10, MeasureCycles: 50, Seed: 1,
			}},
		}
		job, _, err := s.SubmitSimulate(SimulateRequest{Sim: req})
		if !errors.Is(err, noc.ErrConfig) || job != nil {
			t.Errorf("%d bits on %d-bit flits: job %v, err %v", c.bits, c.flitBits, job, err)
		}
	}
	if n := s.Metrics.JobsSubmitted.Load(); n != 0 {
		t.Errorf("%d rejected submissions were admitted", n)
	}
}

// TestSimulateRejectsOversizedConfigBeforeQueueing: a config whose
// networks would exceed the kernel's size limits (the 4x4 mesh at
// 65536 VCs × 65536 flits used to run the daemon out of memory inside
// the batch) fails submission with noc.ErrConfig and queues nothing.
func TestSimulateRejectsOversizedConfigBeforeQueueing(t *testing.T) {
	s := newStubService(t, Config{Workers: 1})
	for _, c := range []noc.SimConfig{
		{NumVCs: 65536, BufferFlits: 65536},
		{NumVCs: noc.MaxVCs + 1},
		{NumVCs: 64, BufferFlits: 1 << 16},
	} {
		req := &noc.SimRequest{
			Archs:  []noc.SimArch{{Mesh: "4x4"}},
			Config: &c,
			Points: []noc.SimPoint{{
				Arch: 0, Pattern: "uniform", Bits: 64, Rate: 0.02,
				WarmupCycles: 10, MeasureCycles: 20, Seed: 1,
			}},
		}
		job, _, err := s.SubmitSimulate(SimulateRequest{Sim: req})
		if !errors.Is(err, noc.ErrConfig) || job != nil {
			t.Errorf("config %+v: job %v, err %v", c, job, err)
		}
	}
	if n := s.Metrics.JobsSubmitted.Load(); n != 0 {
		t.Errorf("%d rejected submissions were admitted", n)
	}
}
