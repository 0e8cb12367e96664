package main

// config holds the input sizes of every workload. fullConfig is what
// the benchmark runs; the smoke tests run tinyConfig.
type config struct {
	// setupReps is how many times an untraced run sets up; setup_s is
	// the median.
	setupReps int

	// synth-cold: the seeded instance sets the passes cycle through,
	// and the TGFF and Barabási–Albert sizes of each set.
	synthSets int
	tgffSizes []int
	baSizes   []int

	// sim-sweep: the dense-path and large-network node counts and the
	// rate ladders run on them.
	simSmall, simLarge int
	ladders            []ladder

	// serve-mix: the node-count ranges of the synthesized graphs and the
	// simulated architectures, and the frontier graph size.
	synthNodes   [2]int
	simNodes     [2]int
	frontierTGFF int
}

// ladder is one (architecture, pattern) rate ladder of sim-sweep.
// large selects the large network; warmup and measure are the cycle
// windows of every point.
type ladder struct {
	large           bool
	pattern         string
	rates           []float64
	warmup, measure int64
}

func fullConfig() config {
	return config{
		setupReps: 3,
		synthSets: 4,
		tgffSizes: []int{10, 14, 18},
		baSizes:   []int{10, 20, 30},
		simSmall:  1000,
		simLarge:  10000,
		ladders: []ladder{
			{false, "uniform", []float64{0.001, 0.002, 0.003}, 200, 800},
			{false, "hotspot:0,1,2,3:0.5", []float64{0.0005, 0.001}, 200, 800},
			{false, "transpose", []float64{0.002, 0.004}, 200, 800},
			{true, "uniform", []float64{0.0002, 0.0004}, 100, 400},
			{true, "hotspot:0,1,2,3,4,5,6,7:1", []float64{0.00005, 0.0001}, 100, 400},
		},
		synthNodes:   [2]int{16, 18},
		simNodes:     [2]int{240, 272},
		frontierTGFF: 10,
	}
}

// tinyConfig keeps every code path of fullConfig, including the sparse
// and landmark compiles above the dense limit, at sizes a unit test can
// afford.
func tinyConfig() config {
	return config{
		setupReps: 2,
		synthSets: 1,
		tgffSizes: []int{6},
		baSizes:   []int{8},
		simSmall:  64,
		simLarge:  denseLimit + 52,
		ladders: []ladder{
			{false, "uniform", []float64{0.01}, 20, 60},
			{true, "uniform", []float64{0.0005}, 20, 60},
			{true, "hotspot:0,1:1", []float64{0.0005}, 20, 60},
		},
		synthNodes:   [2]int{6, 8},
		simNodes:     [2]int{24, 32},
		frontierTGFF: 6,
	}
}
