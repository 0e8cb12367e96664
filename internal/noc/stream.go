package noc

import "math/rand"

// math/rand's default Source is an additive lagged-Fibonacci generator:
// once its first streamLag outputs are known, every later output is
// x[k] = x[k-streamLag] + x[k-streamTap] (mod 2^64) of its own earlier
// outputs. Go 1 compatibility freezes that value stream (the rand
// package documents it), and TestStreamSourceMatchesMathRand pins it.
const (
	streamLag = 607
	streamTap = 273
	// streamChunk is how many outputs the buffer holds past its
	// streamLag-value history before it slides.
	streamChunk = 4096
	int63Mask   = 1<<63 - 1
)

// streamSource is a rand.Source64 producing exactly the value stream of
// rand.NewSource(seed), generated by the recurrence into a flat buffer.
// Consumers that only compare values against a threshold (the Bernoulli
// arrival draws of GenerateTraceInto) generate and test values in one
// tight loop (scan); every other consumer draws through rand.New(src),
// so all of them share one stream in the order the per-draw code would
// have consumed it.
type streamSource struct {
	// buf[pos-streamLag:pos] are the last streamLag outputs; the next is
	// buf[pos-streamLag] + buf[pos-streamTap], stored at buf[pos]. At the
	// end of buf the history slides back to the front.
	buf []uint64
	pos int
}

func newStreamSource(seed int64) *streamSource {
	s := &streamSource{buf: make([]uint64, streamLag+streamChunk)}
	s.Seed(seed)
	return s
}

// Seed restarts the stream at rand.NewSource(seed)'s first output.
func (s *streamSource) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for k := streamLag; k < 2*streamLag; k++ {
		s.buf[k] = src.Uint64()
	}
	s.rewind()
}

// rewind makes the streamLag values at buf[streamLag:2*streamLag] the
// next outputs. It steps the recurrence backwards,
// x[k-streamLag] = x[k] - x[k-streamTap], to recover the streamLag
// values before them: the history from which the recurrence then
// regenerates those outputs and everything after.
func (s *streamSource) rewind() {
	b := s.buf
	// Descending, so the history value b[k-streamTap] each step reads
	// (for k-streamTap < streamLag) was recovered by an earlier step.
	for k := 2*streamLag - 1; k >= streamLag; k-- {
		b[k-streamLag] = b[k] - b[k-streamTap]
	}
	s.pos = streamLag
}

// slide moves the last streamLag outputs to the front of the buffer.
func (s *streamSource) slide() {
	copy(s.buf, s.buf[len(s.buf)-streamLag:])
	s.pos = streamLag
}

func (s *streamSource) Uint64() uint64 {
	if s.pos == len(s.buf) {
		s.slide()
	}
	b, i := s.buf, s.pos
	v := b[i-streamLag] + b[i-streamTap]
	b[i] = v
	s.pos++
	return v
}

func (s *streamSource) Int63() int64 { return int64(s.Uint64() & int63Mask) }

// float64Cut returns the least v in [1, 2^63] with float64(v)/2^63 >= p,
// for p in (0, 1]. rand.Float64 returns float64(Int63())/2^63, redrawn
// when that rounds to 1, so for an Int63 value v:
//
//	Float64() >= p  ⇔  v >= float64Cut(p)
//	redraw          ⇔  v >= float64Cut(1)
//
// The conversion is monotone in v and the division by 2^63 is exact, so
// the cut is well defined and found by bisection.
func float64Cut(p float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63 // pred(lo) false, pred(hi) true
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// scan draws stream values as successive Bernoulli slots: a value at
// or above redraw is Float64's redraw and takes no slot, a value in
// [cut, redraw) is a miss that closes one slot, and a value below cut
// is a hit. It stops after the first hit (drawn, reported true) or once
// limit slots have missed, and returns the number of missed slots. It
// never draws a value past the last of the limit slots.
func (s *streamSource) scan(cut, redraw uint64, limit int64) (int64, bool) {
	span := redraw - cut
	var missed int64
	for {
		if s.pos == len(s.buf) {
			s.slide()
		}
		i := s.pos
		end := len(s.buf)
		if rem := limit - missed; int64(end-i) > rem {
			end = i + int(rem)
		}
		// Three aligned views: out[k] = lag[k] + tap[k].
		out := s.buf[i:end]
		lag := s.buf[i-streamLag : end-streamLag][:len(out)]
		tap := s.buf[i-streamTap : end-streamTap][:len(out)]
		k, v := 0, uint64(0)
		for ; k < len(out); k++ {
			v = lag[k] + tap[k]
			out[k] = v
			if v&int63Mask-cut >= span {
				break
			}
		}
		missed += int64(k)
		s.pos = i + k
		if k < len(out) {
			s.pos++
			if v&int63Mask < cut {
				return missed, true
			}
			continue // redraw: the slot draws again
		}
		if missed == limit {
			return missed, false
		}
	}
}
