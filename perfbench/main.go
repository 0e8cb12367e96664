// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed window, checks every output
// it produces, and prints a report whose last line is a JSON object:
//
//	go run . -workload synth-cold -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the JSON carries the end-to-end metrics, measured with
// tracing off. With -trace 1 the window is split: the first half runs
// untraced, the second half records spans around every call the
// benchmark makes into a layer, and the JSON carries the per-layer
// metrics derived from those spans. README.md describes the workloads
// and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one benchmark workload. setup builds the run's inputs from
// the seed; measure runs the closed loop for a window and returns its
// request latencies; verify re-checks what the loop produced against an
// independent computation after the window has closed; teardown stops
// whatever setup or measure started.
type workload interface {
	setup(ctx context.Context, r *runner, tr *trace) error
	measure(ctx context.Context, r *runner, tr *trace, window time.Duration) (*phase, error)
	verify(ctx context.Context, r *runner, tr *trace) error
	teardown() error
}

var workloads = map[string]func(cfg config) workload{
	"synth-cold": func(cfg config) workload { return &synthCold{cfg: cfg} },
	"sim-sweep":  func(cfg config) workload { return &simSweep{cfg: cfg} },
	"serve-mix":  func(cfg config) workload { return &serveMix{cfg: cfg} },
}

// phase is the outcome of one measured window.
type phase struct {
	lat     []time.Duration // one entry per completed request
	kind    []string        // what each request was, for the per-kind note
	elapsed time.Duration
	// simPkts/simHost: packets delivered by the simulations the window
	// ran and the host time those simulations took.
	simPkts int64
	simHost time.Duration
}

// runner carries one invocation's settings and its failure accounting.
type runner struct {
	cfg    config
	seed   int64
	window time.Duration
	traced bool
	nproc  int

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// check counts one checked operation, failing it when err is non-nil.
func (r *runner) check(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// outcome is what one invocation reports.
type outcome struct {
	metrics metricSet
	notes   []string
}

func main() {
	name := flag.String("workload", "", "workload to run: synth-cold, sim-sweep or serve-mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	outDir := flag.String("out", "", "directory for the span file of a traced run (empty: none)")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload synth-cold|sim-sweep|serve-mix -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	r := &runner{
		cfg:    fullConfig(),
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1,
		nproc:  runtime.NumCPU(),
	}
	out, err := execute(context.Background(), r, mk(r.cfg), *name, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	printReport(os.Stdout, r, *name, out)
}

// execute runs one invocation: the untraced measurement, or the split
// untraced/traced measurement of a traced run.
func execute(ctx context.Context, r *runner, w workload, name, outDir string) (*outcome, error) {
	out := &outcome{}
	defer func() {
		if err := w.teardown(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: teardown: %v\n", err)
		}
	}()
	if !r.traced {
		var setups []float64
		for i := 0; i < r.cfg.setupReps; i++ {
			if i > 0 {
				if err := w.teardown(); err != nil {
					return nil, err
				}
				w = workloads[name](r.cfg)
				settle()
			}
			start := time.Now()
			if err := w.setup(ctx, r, nil); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		settle()
		rss := startRSS(250 * time.Millisecond)
		ph, err := w.measure(ctx, r, nil, r.window)
		rssMB := rss.finish()
		if err != nil {
			return nil, err
		}
		if err := w.verify(ctx, r, nil); err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		ref, err := referencePass(ctx, r, nil)
		if err != nil {
			return nil, fmt.Errorf("reference pass: %w", err)
		}
		out.notes = endToEnd(&out.metrics, r, median(setups), ph, rssMB, ref)
		return out, nil
	}

	tr, refTr := newTrace(), newTrace()
	if err := w.setup(ctx, r, tr); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	settle()
	plain, err := w.measure(ctx, r, nil, r.window/2)
	if err != nil {
		return nil, err
	}
	settle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	traced, err := w.measure(ctx, r, tr, r.window/2)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	if err := w.verify(ctx, r, tr); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	if _, err := referencePass(ctx, r, refTr); err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	overhead := ratio(median(msList(traced.lat)), median(msList(plain.lat))) - 1
	out.notes = perLayer(&out.metrics, tr, refTr, traced, &before, &after, overhead)
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		base := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d", name, r.seed))
		if err := tr.writeFile(base + ".jsonl"); err != nil {
			return nil, err
		}
		if err := refTr.writeFile(base + "-reference.jsonl"); err != nil {
			return nil, err
		}
		out.notes = append(out.notes, "spans written to "+base+".jsonl and "+base+"-reference.jsonl")
	}
	return out, nil
}

// endToEnd fills the untraced metrics and returns explanatory notes.
func endToEnd(m *metricSet, r *runner, setupS float64, ph *phase, rssMB float64, ref *aesModel) []string {
	lat := msList(ph.lat)
	p, beyond, ok := tailPercentile(len(lat))
	m.add("setup_s", "s", setupS)
	m.add("req_p50_ms", "ms", percentile(lat, 50))
	m.add("req_tail_ms", "ms", percentile(lat, p))
	m.add("req_per_s", "1/s", float64(len(lat))/ph.elapsed.Seconds())
	m.add("ok_frac", "frac", 1-ratio(float64(r.failed), float64(r.attempted)))
	m.add("sim_pkts_per_s", "1/s", float64(ph.simPkts)/ph.simHost.Seconds())
	m.add("peak_rss_mb", "MB", rssMB)
	m.add("aes_tput_err_pts", "pts", ref.tputErrPts())
	m.add("aes_energy_err_pts", "pts", ref.energyErrPts())
	tail := fmt.Sprintf("req_tail_ms is p%g of %d requests, %d samples beyond it", p, len(lat), beyond)
	if !ok {
		tail += " (too few requests for a tail with 10 beyond; p50 reported)"
	}
	return []string{
		tail,
		byKind(ph),
		fmt.Sprintf("fail_frac %.6f (%d failed of %d attempted)", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted),
		fmt.Sprintf("AES model: throughput %+.1f%% (paper +36%%), energy/block %+.1f%% (paper -51%%)", ref.tputPct, ref.energyPct),
	}
}

// byKind summarizes the latencies of each kind of request.
func byKind(ph *phase) string {
	lat := map[string][]float64{}
	var kinds []string
	for i, k := range ph.kind {
		if lat[k] == nil {
			kinds = append(kinds, k)
		}
		lat[k] = append(lat[k], ms(ph.lat[i]))
	}
	sort.Strings(kinds)
	var b strings.Builder
	b.WriteString("p50 by kind:")
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s %.3g ms (%d)", k, percentile(lat[k], 50), len(lat[k]))
	}
	return b.String()
}

// settle collects garbage and returns free memory to the OS, so every
// measured window starts from the same state whatever set-up left behind.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// rssSampler samples the peak resident set over a measured window: every
// period it reads VmHWM and resets it, so each sample is the peak of one
// period. Its median is steadier than the process-wide peak, which one
// badly timed garbage collection can set.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64
}

func startRSS(period time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	resettable := resetPeakRSS() == nil
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.samples = append(s.samples, peakRSSMB())
				return
			case <-t.C:
				if resettable {
					s.samples = append(s.samples, peakRSSMB())
					// A reset that worked once and fails now only
					// lengthens the next sample's period.
					_ = resetPeakRSS()
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median sample. Where VmHWM
// cannot be reset the only sample is the process-wide peak.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return median(s.samples)
}

// resetPeakRSS resets VmHWM to the current resident set.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// host describes the machine a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			h.Commit += "+modified"
		}
	}
	return h
}

// printReport writes the human-readable report and, as the last line,
// the JSON result object.
func printReport(f *os.File, r *runner, name string, out *outcome) {
	h := hostInfo()
	hb, _ := json.Marshal(h)
	fmt.Fprintf(f, "workload %s seed %d window %v trace %v\n", name, r.seed, r.window, r.traced)
	fmt.Fprintf(f, "host %s\n", hb)
	for _, m := range out.metrics.list {
		fmt.Fprintf(f, "  %-24s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range out.notes {
		fmt.Fprintf(f, "note: %s\n", n)
	}
	for _, msg := range r.failures {
		fmt.Fprintf(f, "FAIL: %s\n", msg)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]val{}}
	for _, m := range out.metrics.list {
		res.Metrics[m.Name] = val{m.Value, m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(f, "%s\n", b)
}
