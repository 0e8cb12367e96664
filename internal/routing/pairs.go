package routing

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// PairSet is a demand set: the ordered (src, dst) dense-index pairs a
// workload can actually draw, the unit of demand-driven table
// compilation. Traffic patterns enumerate their support into one
// (uniform → all pairs, a permutation → n, hotspot → n·|hubs|), batch
// planning unions the sets of every point sharing an architecture, and
// CompileTablePairs compiles exactly the union. The zero value is not
// valid; use NewPairSet.
//
// Pairs are keyed by dense node index (the frozen CSR order of
// Architecture.Nodes(), which is ascending node id) rather than node id,
// because every consumer — pattern sampling, plan lookup, the compile
// loop — already lives in index space. The all-pairs state is a flag,
// not n² entries, so uniform demand on a 10k-router network costs no
// memory until it is compiled into a complete table.
type PairSet struct {
	n     int
	all   bool
	pairs map[int64]struct{}
}

// NewPairSet returns an empty demand set over n dense node indices.
func NewPairSet(n int) *PairSet {
	return &PairSet{n: n, pairs: make(map[int64]struct{})}
}

// AllPairs returns the demand set holding every ordered pair over n
// nodes, represented symbolically.
func AllPairs(n int) *PairSet {
	return &PairSet{n: n, all: true}
}

func pairKey(s, d int) int64 { return int64(s)<<32 | int64(uint32(d)) }

// N returns the node count the set is defined over.
func (p *PairSet) N() int { return p.n }

// All reports whether the set symbolically holds every ordered pair.
func (p *PairSet) All() bool { return p.all }

// Add inserts the ordered pair (s, d). Self-pairs and out-of-range
// indices are ignored: they carry no routing demand.
func (p *PairSet) Add(s, d int) {
	if p.all || s == d || s < 0 || s >= p.n || d < 0 || d >= p.n {
		return
	}
	p.pairs[pairKey(s, d)] = struct{}{}
}

// AddAll collapses the set to the symbolic all-pairs state.
func (p *PairSet) AddAll() {
	p.all = true
	p.pairs = nil
}

// AddUnion folds every pair of q into p. Both sets must be defined over
// the same node count.
func (p *PairSet) AddUnion(q *PairSet) error {
	if q == nil {
		return nil
	}
	if q.n != p.n {
		return fmt.Errorf("routing: pair-set union over mismatched node counts %d and %d", p.n, q.n)
	}
	if p.all {
		return nil
	}
	if q.all {
		p.AddAll()
		return nil
	}
	for k := range q.pairs {
		p.pairs[k] = struct{}{}
	}
	return nil
}

// Contains reports whether (s, d) is in the set.
func (p *PairSet) Contains(s, d int) bool {
	if s == d || s < 0 || s >= p.n || d < 0 || d >= p.n {
		return false
	}
	if p.all {
		return true
	}
	_, ok := p.pairs[pairKey(s, d)]
	return ok
}

// Len returns the number of ordered pairs in the set (n·(n-1) for the
// symbolic all-pairs state).
func (p *PairSet) Len() int {
	if p.all {
		return p.n * (p.n - 1)
	}
	return len(p.pairs)
}

// Sorted returns the pairs in (src, dst) index order — the deterministic
// iteration every consumer compiles and hashes in. The all-pairs state
// enumerates explicitly; callers on large sets should branch on All()
// first.
func (p *PairSet) Sorted() [][2]int32 {
	if p.all {
		out := make([][2]int32, 0, p.n*(p.n-1))
		for s := 0; s < p.n; s++ {
			for d := 0; d < p.n; d++ {
				if s != d {
					out = append(out, [2]int32{int32(s), int32(d)})
				}
			}
		}
		return out
	}
	out := make([][2]int32, 0, len(p.pairs))
	for k := range p.pairs {
		out = append(out, [2]int32{int32(k >> 32), int32(uint32(k))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// csr returns the set as a per-source index: dsts[srcOff[s]:srcOff[s+1]]
// are s's destinations in ascending order. The all-pairs state is
// generated row by row, never as a list of n² pairs.
func (p *PairSet) csr() (srcOff, dsts []int32) {
	srcOff = make([]int32, p.n+1)
	if p.all {
		dsts = make([]int32, 0, p.n*(p.n-1))
		for s := 0; s < p.n; s++ {
			for d := 0; d < p.n; d++ {
				if d != s {
					dsts = append(dsts, int32(d))
				}
			}
			srcOff[s+1] = int32(len(dsts))
		}
		return srcOff, dsts
	}
	sorted := p.Sorted()
	dsts = make([]int32, len(sorted))
	for i, pr := range sorted {
		dsts[i] = pr[1]
		srcOff[pr[0]+1]++
	}
	for s := 0; s < p.n; s++ {
		srcOff[s+1] += srcOff[s]
	}
	return srcOff, dsts
}

// NodePairs translates the set into node-id pairs through the dense
// index order (ids[i] is the node at index i) — the form
// AssignVirtualChannels consumes. Returns nil for the all-pairs state,
// which is that API's existing "every ordered pair" convention.
func (p *PairSet) NodePairs(ids []graph.NodeID) [][2]graph.NodeID {
	if p.all {
		return nil
	}
	sorted := p.Sorted()
	out := make([][2]graph.NodeID, len(sorted))
	for i, pr := range sorted {
		out[i] = [2]graph.NodeID{ids[pr[0]], ids[pr[1]]}
	}
	return out
}
