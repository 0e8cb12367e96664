package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/wire"
)

// refStats has the fields of Stats without its methods, so encoding/json
// reads and writes it by reflection: the oracle the Stats codec must
// match.
type refStats Stats

// checkStatsDecode decodes data with both codecs, each into a copy of
// base (absent members keep base's values): they must accept the same
// inputs, decode them alike and re-encode them to equal bytes.
func checkStatsDecode(t *testing.T, base Stats, data []byte) {
	t.Helper()
	got, want := base, refStats(base)
	r := wire.NewReader(data)
	got.ReadJSON(r)
	gotErr, wantErr := r.Finish(), json.Unmarshal(data, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("input %q: codec error %v, reference error %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got != Stats(want) {
		t.Fatalf("input %q: codec decodes %+v, reference %+v", data, got, want)
	}
	gotEnc := got.AppendJSON(nil)
	wantEnc, err := json.Marshal(want)
	if err != nil || !bytes.Equal(gotEnc, wantEnc) {
		t.Fatalf("input %q: re-encodes differ:\n codec %s\n  ref  %s (%v)", data, gotEnc, wantEnc, err)
	}
}

var statsCodecInputs = []string{
	`{"NodesExplored":32,"MatchingsTried":7,"BranchesPruned":25,"LeavesReached":2,"ConstraintFails":0,"TimedOut":false,"Canceled":true,"Workers":2,"IsoCacheHits":0,"IsoCacheMisses":0,"Elapsed":123456}`,
	`{}`,
	`null`,
	` { "Workers" : 3 , "nodesexplored" : 9 , "TIMEDOUT" : true , "other" : [ {} ] } `,
	`{"Elapsed":null,"TimedOut":null}`,
	`{"Workers":1,"Workers":2}`,
	`{"Elapsed":1.5}`,
	`{"TimedOut":"true"}`,
	`{"Workers":-9223372036854775808}`,
	`[]`,
}

// TestStatsCodecMatchesReference: the hand-written Stats codec agrees
// with encoding/json's reflection on its fields.
func TestStatsCodecMatchesReference(t *testing.T) {
	base := Stats{NodesExplored: 5, TimedOut: true, Elapsed: time.Second}
	for _, in := range statsCodecInputs {
		checkStatsDecode(t, Stats{}, []byte(in))
		checkStatsDecode(t, base, []byte(in))
	}
	full := Stats{NodesExplored: math.MaxInt64, MatchingsTried: math.MinInt64, Workers: 2, Canceled: true, Elapsed: -time.Nanosecond}
	for _, s := range []Stats{{}, base, full} {
		got := s.AppendJSON(nil)
		want, err := json.Marshal(refStats(s))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("encodes differ:\n codec %s\n  ref  %s (%v)", got, want, err)
		}
	}
}

// FuzzStatsCodec: the Stats codec and encoding/json's reflection accept
// the same inputs and decode them alike.
func FuzzStatsCodec(f *testing.F) {
	for _, in := range statsCodecInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkStatsDecode(t, Stats{}, data) })
}
