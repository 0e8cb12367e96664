package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls. Spans of one request share Req; Parent is the ID of the
// enclosing span (0 for a root). Times are offsets from the trace's
// start.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// trace keeps spans, and the layer counters taken at the same call
// sites, in memory until the run ends. A nil *trace records nothing,
// which is how the untraced runs call the same code.
type trace struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	reqs  int
	c     counters
}

func newTrace() *trace { return &trace{t0: time.Now()} }

// request allocates a fresh request ID.
func (t *trace) request() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// begin opens a span and returns its ID (0 when tracing is off).
func (t *trace) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *trace) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a closed span from wall-clock timestamps taken elsewhere
// (the service's job timestamps).
func (t *trace) record(name string, parent, req int, start, end time.Time) {
	if t == nil || end.Before(start) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
}

// snapshot returns the closed spans.
func (t *trace) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeFile writes the spans as JSON lines, one span per line.
func (t *trace) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Children that overlap one
// another (parallel work) are counted once, and child time outside the
// parent's interval is ignored.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][][2]time.Duration)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if _, ok := byID[s.Parent]; ok {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	c := append([][2]time.Duration(nil), ivs...)
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, iv := range c {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Calls int
	Self  time.Duration
	Total time.Duration
}

// aggregate sums self and total time per span name over spans.
func aggregate(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := make(map[string]layerTime)
	for _, s := range spans {
		a := out[s.Name]
		a.Calls++
		a.Self += self[s.ID]
		a.Total += s.End - s.Start
		out[s.Name] = a
	}
	return out
}

// rootTime sums the durations of root spans: the whole traced work.
func rootTime(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			d += s.End - s.Start
		}
	}
	return d
}
