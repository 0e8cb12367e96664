package noc

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteTrace serializes a trace as JSON lines-free compact JSON (one
// array), suitable for replaying simulations across runs and tools.
func WriteTrace(w io.Writer, trace Trace) error {
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

// ReadTrace parses a trace written by WriteTrace, validates it (ordered
// cycles, positive sizes, no self-addressed events) and returns it.
func ReadTrace(r io.Reader) (Trace, error) {
	var trace Trace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&trace); err != nil {
		return nil, fmt.Errorf("noc: decoding trace: %w", err)
	}
	if err := ValidateTrace(trace); err != nil {
		return nil, err
	}
	return trace, nil
}

// ValidateTrace checks trace invariants: non-decreasing cycles, positive
// bit counts, distinct endpoints.
func ValidateTrace(trace Trace) error {
	for i, ev := range trace {
		if ev.Bits <= 0 {
			return fmt.Errorf("noc: trace event %d has %d bits", i, ev.Bits)
		}
		if ev.Src == ev.Dst {
			return fmt.Errorf("noc: trace event %d is self-addressed (node %d)", i, ev.Src)
		}
		if ev.Cycle < 0 {
			return fmt.Errorf("noc: trace event %d at negative cycle", i)
		}
		if i > 0 && ev.Cycle < trace[i-1].Cycle {
			return fmt.Errorf("noc: trace event %d out of order (%d after %d)",
				i, ev.Cycle, trace[i-1].Cycle)
		}
	}
	return nil
}
