// VOPD case study: synthesis for a Video Object Plane Decoder.
//
// The VOPD is the classic multimedia SoC benchmark of the NoC-synthesis
// literature (Bertozzi & Benini et al.): twelve heterogeneous cores —
// variable-length decoder, inverse scan, AC/DC prediction, iQuant, IDCT,
// up-sampler, VOP reconstruction, padding, memories — with a mostly
// pipelined traffic pattern plus memory fan-in. It is exactly the kind of
// "complex application" whose varying communication requirements the
// paper argues waste a regular mesh (Section 1).
//
// This example floorplans heterogeneous core sizes with the annealed
// slicing floorplanner (both area-only and traffic-aware, the paper's
// future-work relaxation), synthesizes a customized topology in energy
// mode under a link bandwidth constraint, and reports the architecture
// and energy cost of each variant.
//
// Run with: go run ./examples/vopd
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/floorplan"

	repro "repro"
)

// Core ids.
const (
	VLD = iota + 1
	RunLenDec
	InvScan
	ACDCPred
	StripeMem
	IQuant
	IDCT
	UpSamp
	VOPRec
	Padding
	VOPMem
	ARM
)

var coreNames = map[repro.NodeID]string{
	VLD: "vld", RunLenDec: "rld", InvScan: "iscan", ACDCPred: "acdc",
	StripeMem: "smem", IQuant: "iquant", IDCT: "idct", UpSamp: "upsamp",
	VOPRec: "voprec", Padding: "pad", VOPMem: "vopmem", ARM: "arm",
}

// vopdACG builds the VOPD traffic graph. Volumes are the benchmark's
// inter-core rates in MB/s, reused as both relative volume (scaled to
// bits) and bandwidth.
func vopdACG() *repro.Graph {
	flows := []struct {
		from, to repro.NodeID
		mbps     float64
	}{
		{VLD, RunLenDec, 70},
		{RunLenDec, InvScan, 362},
		{InvScan, ACDCPred, 362},
		{ACDCPred, StripeMem, 362},
		{StripeMem, IQuant, 362},
		{ACDCPred, IQuant, 49},
		{IQuant, IDCT, 357},
		{IDCT, UpSamp, 353},
		{UpSamp, VOPRec, 300},
		{VOPRec, Padding, 313},
		{Padding, VOPMem, 313},
		{VOPMem, VOPRec, 94},
		{ARM, IDCT, 16},
		{ARM, VOPMem, 16},
		{VOPMem, ARM, 16},
		{IDCT, ARM, 16},
	}
	g := repro.NewACG("vopd")
	for _, f := range flows {
		g.AddEdge(repro.Edge{From: f.from, To: f.to, Volume: f.mbps * 8, Bandwidth: f.mbps})
	}
	return g
}

// vopdCores gives each core a plausible relative footprint in mm.
func vopdCores() []repro.Core {
	dims := map[repro.NodeID][2]float64{
		VLD: {1.5, 1}, RunLenDec: {1, 1}, InvScan: {1, 1}, ACDCPred: {1.5, 1.5},
		StripeMem: {2, 1.5}, IQuant: {1, 1}, IDCT: {2, 2}, UpSamp: {1.5, 1},
		VOPRec: {1.5, 1.5}, Padding: {1, 1}, VOPMem: {2.5, 2}, ARM: {2, 2},
	}
	var cores []repro.Core
	for id := repro.NodeID(1); id <= ARM; id++ {
		d := dims[id]
		cores = append(cores, repro.Core{ID: id, Name: coreNames[id], W: d[0], H: d[1]})
	}
	return cores
}

func main() {
	acg := vopdACG()
	cores := vopdCores()
	fmt.Printf("VOPD: %d cores, %d flows, %.0f MB/s aggregate\n\n",
		acg.NodeCount(), acg.EdgeCount(), acg.TotalBandwidth())

	// Floorplan twice: area-only, and traffic-aware (future-work mode).
	area, err := floorplan.Slicing(cores, 7)
	if err != nil {
		log.Fatal(err)
	}
	aware, err := floorplan.SlicingWithTraffic(cores, 7, floorplan.TrafficAnnealOptions{
		Traffic:          acg,
		WirelengthWeight: 0.002,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("floorplan (area-only):     %.1f mm2, weighted wirelength %.0f\n",
		area.Area(), floorplan.WeightedWirelength(area, acg))
	fmt.Printf("floorplan (traffic-aware): %.1f mm2, weighted wirelength %.0f\n\n",
		aware.Area(), floorplan.WeightedWirelength(aware, acg))

	for _, variant := range []struct {
		name      string
		placement *floorplan.Placement
	}{
		{"area-only", area},
		{"traffic-aware", aware},
	} {
		res, err := repro.Synthesize(acg, repro.Options{
			Mode:      repro.CostEnergy,
			Placement: variant.placement,
			Energy:    repro.Tech130,
			Timeout:   30 * time.Second,
			Constraints: repro.Constraints{
				LinkBandwidthMbps: 2000,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- synthesis on %s floorplan ---\n", variant.name)
		fmt.Print(res.Decomposition.PaperListing())
		fmt.Printf("architecture: %d links, %.1f mm wire, energy cost %.0f pJ\n\n",
			res.Architecture.LinkCount(),
			res.Architecture.TotalWireLengthMM(),
			res.Decomposition.Cost)
	}
}
