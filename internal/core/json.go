package core

import (
	"strconv"

	"repro/internal/wire"
)

// The wire form of Stats, what encoding/json writes for the struct,
// names every field as declared, in declaration order, with Elapsed in
// nanoseconds:
//
//	{"NodesExplored":…,"MatchingsTried":…,…,"Elapsed":…}

var statsKeys = []string{
	"NodesExplored", "MatchingsTried", "BranchesPruned", "LeavesReached", "ConstraintFails",
	"TimedOut", "Canceled", "Workers", "IsoCacheHits", "IsoCacheMisses", "Elapsed",
}

// AppendJSON appends the stats' wire form to b.
func (s Stats) AppendJSON(b []byte) []byte {
	b = append(b, `{"NodesExplored":`...)
	b = wire.AppendInt(b, s.NodesExplored)
	b = append(b, `,"MatchingsTried":`...)
	b = wire.AppendInt(b, s.MatchingsTried)
	b = append(b, `,"BranchesPruned":`...)
	b = wire.AppendInt(b, s.BranchesPruned)
	b = append(b, `,"LeavesReached":`...)
	b = wire.AppendInt(b, s.LeavesReached)
	b = append(b, `,"ConstraintFails":`...)
	b = wire.AppendInt(b, s.ConstraintFails)
	b = append(b, `,"TimedOut":`...)
	b = strconv.AppendBool(b, s.TimedOut)
	b = append(b, `,"Canceled":`...)
	b = strconv.AppendBool(b, s.Canceled)
	b = append(b, `,"Workers":`...)
	b = wire.AppendInt(b, s.Workers)
	b = append(b, `,"IsoCacheHits":`...)
	b = wire.AppendInt(b, s.IsoCacheHits)
	b = append(b, `,"IsoCacheMisses":`...)
	b = wire.AppendInt(b, s.IsoCacheMisses)
	b = append(b, `,"Elapsed":`...)
	b = wire.AppendInt(b, s.Elapsed)
	return append(b, '}')
}

// ReadJSON reads stats from r into s. Like any struct read through
// encoding/json, members absent from the input (and a null input) leave
// the fields as they are. Errors are recorded in r.
func (s *Stats) ReadJSON(r *wire.Reader) {
	if r.Null() || !r.Object() {
		return
	}
	for r.More() {
		switch r.Key(statsKeys) {
		case "NodesExplored":
			wire.Int(r, &s.NodesExplored)
		case "MatchingsTried":
			wire.Int(r, &s.MatchingsTried)
		case "BranchesPruned":
			wire.Int(r, &s.BranchesPruned)
		case "LeavesReached":
			wire.Int(r, &s.LeavesReached)
		case "ConstraintFails":
			wire.Int(r, &s.ConstraintFails)
		case "TimedOut":
			r.Bool(&s.TimedOut)
		case "Canceled":
			r.Bool(&s.Canceled)
		case "Workers":
			wire.Int(r, &s.Workers)
		case "IsoCacheHits":
			wire.Int(r, &s.IsoCacheHits)
		case "IsoCacheMisses":
			wire.Int(r, &s.IsoCacheMisses)
		case "Elapsed":
			wire.Int(r, &s.Elapsed)
		default:
			r.Skip()
		}
	}
}
