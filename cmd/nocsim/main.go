// Command nocsim drives the cycle-level NoC simulator with synthetic
// traffic over either a standard mesh or a synthesized customized
// architecture, reporting latency, throughput, activity and energy.
//
// Single-run mode injects one pattern at one rate:
//
//	nocsim -mesh 4x4 -packets 500 -bits 128 -rate 0.02 [-tech 180nm]
//	nocsim -acg app.json -pattern transpose -packets 500 -rate 0.02
//
// Sweep mode characterizes the architecture's latency-throughput curve:
// the pattern is driven across an ascending injection-rate ladder, each
// rate on a cold network (one reused, Reset network per parallel
// worker) with warmup-cycle discard and batch-means confidence
// intervals, and the offered-vs-accepted divergence point (saturation)
// is detected and reported as JSON:
//
//	nocsim -mesh 4x4 -sweep -pattern uniform -seed 1
//	nocsim -mesh 4x4 -sweep -pattern hotspot -hotspots 0,5 -hotfrac 0.6
//	nocsim -acg app.json -sweep -rates 0.01,0.05,0.1 -out curve.json
//
// Fault injection and adaptive routing compose with both modes:
// -faults fails named links/routers (optionally mid-run with @cycle) and
// -routing=adaptive replaces the compiled oblivious table with up*/down*
// minimal-adaptive selection over an escape virtual channel. Reliability
// mode reruns the sweep across a ladder of random link fault rates:
//
//	nocsim -mesh 4x4 -faults 'link:1-2,router:5@2000' -packets 500
//	nocsim -mesh 4x4 -sweep -routing adaptive -faults link:1-2
//	nocsim -mesh 4x4 -faultrates 0,0.05,0.1 -routing adaptive -seed 1
//
// Patterns: uniform, transpose, bitcomp, bitrev, shuffle, neighbor,
// hotspot. -burst layers an on/off Markov-modulated arrival process over
// any of them. Both modes are deterministic for a fixed -seed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/noc"

	repro "repro"
)

func main() {
	mesh := flag.String("mesh", "", "mesh dimensions RxC (e.g. 4x4)")
	acgPath := flag.String("acg", "", "ACG JSON to synthesize a custom architecture from")
	packets := flag.Int("packets", 500, "number of packets to inject (single-run mode)")
	bits := flag.Int("bits", 128, "packet payload size in bits")
	rate := flag.Float64("rate", 0.02, "injection rate (packets per node per cycle, single-run mode)")
	seed := flag.Int64("seed", 1, "traffic seed")
	tech := flag.String("tech", "180nm", "technology profile for energy reporting")
	flitBits := flag.Int("flits", 32, "link width in bits")
	traceIn := flag.String("tracein", "", "replay a JSON trace file instead of generating traffic")
	traceOut := flag.String("traceout", "", "save the generated traffic trace to a JSON file")

	pattern := flag.String("pattern", "uniform", "spatial traffic pattern: "+strings.Join(noc.PatternNames(), ", "))
	hotspots := flag.String("hotspots", "0", "hotspot pattern: comma-separated node ranks")
	hotfrac := flag.Float64("hotfrac", 0.5, "hotspot pattern: fraction of traffic aimed at the hotspots")
	burst := flag.Float64("burst", 0, "mean burst length in cycles for on/off modulated arrivals (0 = smooth)")
	burstOn := flag.Float64("burston", 0.25, "long-run ON fraction of the bursty arrival process")

	faults := flag.String("faults", "", "fault spec: comma-separated link:A-B[@cycle] and router:N[@cycle] items")
	routing := flag.String("routing", "oblivious", "route selection: oblivious (compiled table) or adaptive (up*/down* with escape VC)")
	faultRates := flag.String("faultrates", "", "reliability mode: comma-separated link fault-rate ladder; reruns the sweep per rate, emits JSON")
	faultSeed := flag.Int64("faultseed", 1, "seed choosing which links fail per -faultrates step")

	simBatch := flag.String("simbatch", "", "batch mode: run a bulk-simulate request file (noc.SimRequest JSON, the /v1/simulate body) locally, emit the canonical SimResponse JSON")
	memStats := flag.Bool("memstats", false, "report the live heap after the run on stderr in batch and sweep modes (the CI gate for sparse-table memory)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	sweep := flag.Bool("sweep", false, "run a saturation sweep across an injection-rate ladder, emit JSON")
	rates := flag.String("rates", "", "sweep: explicit comma-separated rate ladder (overrides -ratemin/-ratemax/-ratesteps)")
	rateMin := flag.Float64("ratemin", 0.01, "sweep: lowest rate of the generated ladder")
	rateMax := flag.Float64("ratemax", 0.3, "sweep: highest rate of the generated ladder")
	rateSteps := flag.Int("ratesteps", 8, "sweep: number of rates in the generated ladder")
	warmup := flag.Int64("warmup", 1000, "sweep: warmup cycles discarded before measurement")
	measure := flag.Int64("measure", 5000, "sweep: measurement-window cycles per rate")
	batches := flag.Int("batches", 10, "sweep: batch count for the latency confidence interval")
	parallel := flag.Int("parallel", 1, "sweep: rate points simulated concurrently (0 = all CPUs; result is identical)")
	out := flag.String("out", "-", "sweep: JSON output path (\"-\" = stdout)")
	flag.Parse()

	// Ctrl-C cancels the synthesis search and the simulation gracefully
	// (parity with nocsynth); a second Ctrl-C kills the process.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	go func() {
		// Unregister the handler after the first signal so the second
		// Ctrl-C gets the default (terminating) disposition.
		<-ctx.Done()
		cancel()
	}()

	// Profiling wraps every mode; the deferred writers run on all normal
	// exits (check's os.Exit error path skips them, by design).
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			check(err)
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}()
	}

	if *simBatch != "" {
		runSimBatch(ctx, *simBatch, *parallel, *out, *memStats)
		return
	}

	em, err := energy.ProfileByName(*tech)
	check(err)
	cfg := noc.DefaultConfig()
	cfg.FlitBits = *flitBits

	mode, err := noc.ParseRoutingMode(*routing)
	check(err)
	if mode == noc.RoutingAdaptive && cfg.NumVCs < 2 {
		// Adaptive needs at least one lane beyond the escape VC.
		cfg.NumVCs = 2
	}
	var fm *noc.FaultMap
	if *faults != "" {
		fm, err = noc.ParseFaultMap(*faults)
		check(err)
	}
	if *faultRates != "" && *faults != "" {
		check(fmt.Errorf("-faults and -faultrates are exclusive: the reliability ladder chooses its own fault maps"))
	}

	// Resolve the architecture's node count before compiling anything:
	// the pattern is built first so its demand set can drive how much
	// routing table the factory compiles.
	var meshRows, meshCols int
	var synthRes *repro.Result
	var nodeCount int
	switch {
	case *mesh != "":
		if _, err := fmt.Sscanf(*mesh, "%dx%d", &meshRows, &meshCols); err != nil {
			check(fmt.Errorf("bad -mesh %q: %v", *mesh, err))
		}
		if meshRows < 1 || meshCols < 1 {
			check(fmt.Errorf("bad -mesh %q", *mesh))
		}
		nodeCount = meshRows * meshCols
	case *acgPath != "":
		data, err := os.ReadFile(*acgPath)
		check(err)
		var acg graph.Graph
		check(json.Unmarshal(data, &acg))
		synthRes, err = repro.SynthesizeContext(ctx, &acg, repro.Options{Timeout: 60 * time.Second})
		check(err)
		nodeCount = len(synthRes.Architecture.Nodes())
	default:
		flag.Usage()
		os.Exit(2)
	}

	spec := *pattern
	if spec == "hotspot" {
		spec = fmt.Sprintf("hotspot:%s:%g", *hotspots, *hotfrac)
	}
	pat, err := noc.NewPattern(spec, nodeCount)
	check(err)
	var burstCfg *noc.BurstConfig
	if *burst > 0 {
		burstCfg = &noc.BurstConfig{AvgBurstCycles: *burst, OnFraction: *burstOn}
	}

	// The pattern's demand set bounds which route plans the compiled
	// table needs ahead of time; a replayed trace may address any pair,
	// so it keeps the complete all-pairs compile (demand nil).
	var demand *repro.PairSet
	if *traceIn == "" {
		demand = pat.Pairs()
	}

	// arch is the selected architecture with its routing table compiled
	// once, here, for the pattern's demand: the sweep harness draws every
	// network it simulates from it, and the single run below builds one.
	arch := noc.BatchArch{Cfg: cfg}
	if *mesh != "" {
		arch.Arch, arch.Table, err = repro.CompileMesh(meshRows, meshCols, nil, demand)
	} else {
		arch.Arch = synthRes.Architecture
		arch.Table, err = synthRes.CompiledRoutingPairs(demand)
	}
	check(err)

	if *sweep || *faultRates != "" {
		ladder, err := rateLadder(*rates, *rateMin, *rateMax, *rateSteps)
		check(err)
		scfg := noc.SweepConfig{
			Pattern:       pat,
			Bits:          *bits,
			Rates:         ladder,
			WarmupCycles:  *warmup,
			MeasureCycles: *measure,
			Batches:       *batches,
			Seed:          *seed,
			Burst:         burstCfg,
			Parallelism:   *parallel,
			Faults:        fm,
			Routing:       mode,
		}
		if *faultRates != "" {
			runReliability(ctx, arch, scfg, *faultRates, *faultSeed, *out)
			return
		}
		res, err := noc.Sweep(ctx, arch, scfg)
		check(err)
		sink := os.Stdout
		if *out != "-" && *out != "" {
			f, err := os.Create(*out)
			check(err)
			sink = f
		}
		check(res.EncodeJSON(sink))
		if sink != os.Stdout {
			check(sink.Close())
		}
		for _, pt := range res.Points {
			fmt.Fprintf(os.Stderr, "nocsim: rate %.4f offered %.4f accepted %.4f latency %.2f±%.2f%s\n",
				pt.Rate, pt.Offered, pt.Accepted, pt.AvgLatency, pt.LatencyCI95,
				map[bool]string{true: "  SATURATED"}[pt.Saturated])
		}
		if res.Saturated {
			fmt.Fprintf(os.Stderr, "nocsim: %s saturates at offered rate %g packets/node/cycle\n",
				res.Pattern, res.SaturationRate)
		} else {
			fmt.Fprintf(os.Stderr, "nocsim: %s did not saturate within the ladder\n", res.Pattern)
		}
		if *memStats {
			reportMemStats("sweep")
		}
		return
	}

	net, err := noc.NewCompiled(cfg, arch.Arch, arch.Table)
	check(err)
	check(net.SetRouting(mode))
	if fm != nil {
		check(net.ResetWithFaults(fm))
	}

	var trace noc.Trace
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		check(err)
		trace, err = noc.ReadTrace(f)
		f.Close()
		check(err)
	} else {
		// Generate an open-loop schedule long enough to carry -packets at
		// the configured rate, then truncate to exactly -packets events.
		// The horizon is bounded like UniformRandomTrace's: a degenerate
		// -rate must fail fast, not spin for ~packets/rate cycles.
		if *rate <= 0 || *rate > 1 {
			check(fmt.Errorf("-rate %g outside (0, 1]", *rate))
		}
		span := float64(*packets) / (*rate * float64(len(net.Nodes())))
		if span > float64(noc.MaxTraceCycles) {
			check(fmt.Errorf("-rate %g too low to carry %d packets within %d cycles",
				*rate, *packets, noc.MaxTraceCycles))
		}
		horizon := int64(span) + 1000
		trace, err = noc.GenerateTrace(pat, noc.TrafficConfig{
			Nodes: net.Nodes(),
			Bits:  *bits,
			Rate:  *rate,
			Seed:  *seed,
			Burst: burstCfg,
		}, horizon)
		check(err)
		if len(trace) > *packets {
			trace = trace[:*packets]
		}
		if len(trace) == 0 {
			check(fmt.Errorf("pattern %s generated no traffic (every source idle?)", pat.Name()))
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		check(err)
		check(noc.WriteTrace(f, trace))
		check(f.Close())
	}
	if err := net.ReplayContext(ctx, trace, 10_000_000); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "nocsim: interrupted, reporting partial statistics")
		} else {
			check(err)
		}
	}

	st := net.Stats()
	fmt.Print(st.Describe())
	fmt.Printf("elapsed: %d cycles\n", net.Cycle())
	fmt.Printf("throughput: %.2f Mbps @ %g MHz\n",
		st.ThroughputMbps(net.Cycle(), cfg.ClockMHz), cfg.ClockMHz)
	fmt.Printf("energy: %.3f uJ total (%.3f dynamic + %.3f static)\n",
		net.EnergyPJ(em)*1e-6, net.DynamicEnergyPJ(em)*1e-6, net.StaticEnergyPJ(em)*1e-6)
	fmt.Printf("average power: %.1f mW (%s)\n", net.AveragePowerMW(em), em.Name)
}

// runSimBatch runs a bulk-simulate request file through the local batch
// engine — the same noc.RunSim call the /v1/simulate endpoint makes, so
// the emitted bytes cmp-equal the service's response for the same
// request at any -parallel setting.
func runSimBatch(ctx context.Context, path string, parallel int, out string, memStats bool) {
	data, err := os.ReadFile(path)
	check(err)
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var req noc.SimRequest
	check(dec.Decode(&req))
	res, err := noc.RunSim(ctx, &req, parallel)
	check(err)
	if memStats {
		reportMemStats("batch")
	}
	sink := os.Stdout
	if out != "-" && out != "" {
		f, err := os.Create(out)
		check(err)
		sink = f
	}
	check(res.EncodeJSON(sink))
	if sink != os.Stdout {
		check(sink.Close())
	}
	for _, pt := range res.Points {
		fmt.Fprintf(os.Stderr, "nocsim: arch %d %s rate %.4f accepted %.4f latency %.2f±%.2f%s\n",
			pt.Arch, pt.Pattern, pt.Rate, pt.Accepted, pt.AvgLatency, pt.LatencyCI95,
			map[bool]string{true: "  SATURATED"}[pt.Saturated])
	}
}

// runReliability reruns the injection-rate sweep across the -faultrates
// ladder (a deterministic connectivity-preserving random link subset per
// rate) and emits the reliability surface as JSON.
func runReliability(ctx context.Context, arch noc.BatchArch, scfg noc.SweepConfig, spec string, faultSeed int64, out string) {
	var frates []float64
	for _, f := range strings.Split(spec, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			check(fmt.Errorf("bad -faultrates entry %q: %v", f, err))
		}
		frates = append(frates, r)
	}
	res, err := noc.ReliabilitySweep(ctx, arch, noc.ReliabilityConfig{
		Sweep:      scfg,
		FaultRates: frates,
		FaultSeed:  faultSeed,
	})
	check(err)
	sink := os.Stdout
	if out != "-" && out != "" {
		f, err := os.Create(out)
		check(err)
		sink = f
	}
	check(res.EncodeJSON(sink))
	if sink != os.Stdout {
		check(sink.Close())
	}
	for _, pt := range res.Points {
		sat := "no saturation"
		if pt.SaturationRate > 0 {
			sat = fmt.Sprintf("saturates @ %.4f", pt.SaturationRate)
		}
		fmt.Fprintf(os.Stderr, "nocsim: fault rate %.3f (%d links down) delivered %.4f zero-load %.2f peak %.4f %s\n",
			pt.FaultRate, pt.FailedLinks, pt.DeliveredFraction, pt.ZeroLoadLatency, pt.PeakAccepted, sat)
	}
}

// rateLadder parses -rates or generates the linear -ratemin..-ratemax
// ladder.
func rateLadder(spec string, min, max float64, steps int) ([]float64, error) {
	if spec != "" {
		var out []float64
		for _, f := range strings.Split(spec, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("bad -rates entry %q: %v", f, err)
			}
			out = append(out, r)
		}
		return out, nil
	}
	if steps < 2 || min <= 0 || max <= min {
		return nil, fmt.Errorf("bad ladder: min %g max %g steps %d", min, max, steps)
	}
	out := make([]float64, steps)
	for i := range out {
		out[i] = min + (max-min)*float64(i)/float64(steps-1)
	}
	return out, nil
}

// reportMemStats prints two figures on stderr: the post-GC live heap
// (what survives the run) and Sys, the high-water mark of memory
// claimed from the OS — the resident-footprint number the 10k-router
// smoke gates below 1 GB. A complete all-pairs table at that scale would
// have pushed Sys past 12 GB before the first cycle.
func reportMemStats(phase string) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(os.Stderr, "nocsim: heap after %s: %d bytes live (%.1f MB), %d bytes from the OS (%.1f MB)\n",
		phase, ms.HeapAlloc, float64(ms.HeapAlloc)/(1<<20),
		ms.Sys, float64(ms.Sys)/(1<<20))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocsim:", err)
		os.Exit(1)
	}
}
