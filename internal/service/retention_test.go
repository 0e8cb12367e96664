package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro"
	"repro/internal/graph"
)

// A finished job — solved, served from the cache, or simulated — must not
// pin its inputs (the ACG, the options and the run closure that captures
// a simulate request), or resident memory grows with every retained job.
// Its status must still be served.
func TestFinishedJobsHoldNoInput(t *testing.T) {
	solve := func(ctx context.Context, acg *graph.Graph, opts repro.Options) (*repro.Result, error) {
		return stubResult(7), nil
	}
	s := newStubService(t, Config{Workers: 1, Solve: solve})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	synth, _, err := s.Submit(Request{ACG: stubACG("retain"), Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := synth.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	hit, path, err := s.Submit(Request{ACG: stubACG("retain"), Wait: true})
	if err != nil || path != "cache" {
		t.Fatalf("repeat submit: path %q, err %v", path, err)
	}
	_, simReq := simBody(t)
	sim, _, err := s.SubmitSimulate(SimulateRequest{Sim: simReq, Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []*Job{synth, hit, sim} {
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		job.mu.Lock()
		held := job.acg != nil || job.runFn != nil || !reflect.ValueOf(job.opts).IsZero()
		job.mu.Unlock()
		if held {
			t.Fatalf("done %q job still holds its input", job.kind)
		}

		resp, err := http.Get(srv.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || st.State != StateDone {
			t.Fatalf("GET job %s: status %d, state %q", job.ID, resp.StatusCode, st.State)
		}
	}
}
