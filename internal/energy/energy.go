// Package energy implements the bit-energy model of the paper (Equation 1):
//
//	Ebit = nhops · ESbit + (nhops − 1) · ELbit
//
// where nhops is the number of switches a bit traverses on its route,
// ESbit is the energy a switch consumes moving one bit, and ELbit the
// energy one inter-switch link consumes moving one bit. ESbit values for
// different process technologies, voltages and frequencies are stored in
// the library; ELbit depends on the actual link length — which, unlike on
// a regular grid, varies per link in a customized topology — so the
// library stores ELbit *per unit length* and the model accounts for the
// repeaters long wires need (Section 3, "Energy Characterization of
// Implementation Graphs").
package energy

import (
	"fmt"
	"math"
)

// Model is a technology-calibrated bit-energy model.
type Model struct {
	// Name identifies the technology point.
	Name string
	// SwitchBit is ESbit in picojoules per bit per switch traversal.
	SwitchBit float64
	// LinkBitPerMM is the link wire energy in picojoules per bit per
	// millimeter.
	LinkBitPerMM float64
	// RepeaterSpacingMM is the maximum unrepeatered wire length; longer
	// links are segmented with repeaters every RepeaterSpacingMM.
	RepeaterSpacingMM float64
	// RepeaterBit is the energy per bit per repeater, picojoules.
	RepeaterBit float64
	// StaticPortMW is the background (clock tree, leakage, idle router
	// logic) power per router port in milliwatts. It does not enter the
	// per-bit Ebit of Equation 1 — which is pure switching — but it is
	// what implementation-level power measurement (the paper's XPower on
	// the Virtex-2 prototype) integrates over the run time, and on
	// FPGA-era silicon it dominates: energy comparisons between designs
	// therefore reward the architecture that finishes sooner, exactly as
	// in the paper's E = Delta * P accounting.
	StaticPortMW float64
	// VoltageV and ClockMHz document the operating point; they do not
	// enter Ebit directly but scale power reporting.
	VoltageV float64
	ClockMHz float64
}

// Technology profiles. The absolute values are representative of published
// NoC router/link characterizations for the respective nodes (the paper
// itself stores such tables in its library without printing them); all
// reproduction claims are about *relative* mesh-vs-custom numbers, which
// are insensitive to the absolute calibration as both designs share the
// model.
var (
	// Tech180 approximates a 0.18 um node at 1.8 V, 100 MHz — the era of
	// the paper's Virtex-2 prototype.
	Tech180 = Model{
		Name:              "180nm",
		SwitchBit:         0.98,
		LinkBitPerMM:      0.39,
		RepeaterSpacingMM: 3.0,
		RepeaterBit:       0.10,
		StaticPortMW:      20,
		VoltageV:          1.8,
		ClockMHz:          100,
	}
	// Tech130 approximates a 130 nm node at 1.2 V, 250 MHz.
	Tech130 = Model{
		Name:              "130nm",
		SwitchBit:         0.57,
		LinkBitPerMM:      0.26,
		RepeaterSpacingMM: 2.5,
		RepeaterBit:       0.06,
		StaticPortMW:      8,
		VoltageV:          1.2,
		ClockMHz:          250,
	}
	// Tech100 approximates a 100 nm node at 1.0 V, 500 MHz.
	Tech100 = Model{
		Name:              "100nm",
		SwitchBit:         0.37,
		LinkBitPerMM:      0.19,
		RepeaterSpacingMM: 2.0,
		RepeaterBit:       0.04,
		StaticPortMW:      4,
		VoltageV:          1.0,
		ClockMHz:          500,
	}
)

// Profiles returns the built-in technology profiles keyed by name.
func Profiles() map[string]Model {
	return map[string]Model{
		Tech180.Name: Tech180,
		Tech130.Name: Tech130,
		Tech100.Name: Tech100,
	}
}

// ProfileByName returns the named profile.
func ProfileByName(name string) (Model, error) {
	m, ok := Profiles()[name]
	if !ok {
		return Model{}, fmt.Errorf("energy: unknown technology profile %q", name)
	}
	return m, nil
}

// LinkBit returns ELbit for a link of the given length in millimeters,
// including repeater energy: a link of length l needs
// ceil(l/spacing) − 1 repeaters.
func (m Model) LinkBit(lengthMM float64) float64 {
	if lengthMM <= 0 {
		return 0
	}
	wire := m.LinkBitPerMM * lengthMM
	reps := 0.0
	if m.RepeaterSpacingMM > 0 {
		reps = math.Max(0, math.Ceil(lengthMM/m.RepeaterSpacingMM)-1)
	}
	return wire + reps*m.RepeaterBit
}

// BitEnergy evaluates Equation 1 for a route whose per-link lengths (in
// millimeters) are given: the bit traverses len(linkLengths)+1 switches
// and len(linkLengths) links. A route with no links (src == dst) costs
// zero.
func (m Model) BitEnergy(linkLengths []float64) float64 {
	if len(linkLengths) == 0 {
		return 0
	}
	nhops := float64(len(linkLengths) + 1)
	e := nhops * m.SwitchBit
	for _, l := range linkLengths {
		e += m.LinkBit(l)
	}
	return e
}

// TransferEnergy returns the energy in picojoules to move volumeBits along
// a route with the given link lengths.
func (m Model) TransferEnergy(volumeBits float64, linkLengths []float64) float64 {
	return volumeBits * m.BitEnergy(linkLengths)
}

// MinBitEnergy returns an admissible lower bound on the energy per bit for
// any route between two points separated by the given Euclidean distance:
// at least two switch traversals (source and destination router) and wire
// totalling no less than the straight-line distance. Repeater energy is
// deliberately excluded — a route split into short segments may need none —
// which keeps the bound admissible for the branch-and-bound (Section 4.4).
func (m Model) MinBitEnergy(distanceMM float64) float64 {
	wire := 0.0
	if distanceMM > 0 {
		wire = m.LinkBitPerMM * distanceMM
	}
	return 2*m.SwitchBit + wire
}
