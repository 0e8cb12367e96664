package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// CanonicalHash returns a stable content hash of the frozen graph: name,
// vertex set, directed edge set and the volume/bandwidth annotations, in
// the CSR's canonical order. Two Frozens hash equal iff their thawed
// graphs are equal by Equal (same name, vertices, edges and annotations),
// so the hash is a content address for synthesis inputs — the result
// cache of internal/service keys on it.
//
// Unlike a purely structural key, the hash folds in the annotations
// (decomposition cost depends on v(e) and b(e), so a result cache must
// distinguish graphs that matching alone treats as equal), and it is a
// fixed-width digest rather than a raw byte string, so it can be
// published as an external cache key without leaking graph structure.
//
// The encoding is versioned by the leading tag byte; bump it if the layout
// ever changes so stale external caches miss instead of aliasing.
func (f *Frozen) CanonicalHash() [32]byte {
	h := sha256.New()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte{1}) // layout version
	writeU64(uint64(len(f.name)))
	h.Write([]byte(f.name))
	writeU64(uint64(f.NodeCount()))
	for _, id := range f.ids {
		writeU64(uint64(uint32(id)))
	}
	writeU64(uint64(f.EdgeCount()))
	for e := 0; e < f.EdgeCount(); e++ {
		writeU64(uint64(uint32(f.ids[f.eFrom[e]])))
		writeU64(uint64(uint32(f.ids[f.eTo[e]])))
		writeU64(math.Float64bits(f.vol[e]))
		writeU64(math.Float64bits(f.bw[e]))
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}
