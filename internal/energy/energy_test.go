package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestLinkBitZeroAndNegative(t *testing.T) {
	if Tech180.LinkBit(0) != 0 {
		t.Fatal("zero-length link should cost 0")
	}
	if Tech180.LinkBit(-5) != 0 {
		t.Fatal("negative length should cost 0")
	}
}

func TestLinkBitNoRepeatersBelowSpacing(t *testing.T) {
	m := Tech180 // spacing 3mm
	got := m.LinkBit(2.0)
	want := m.LinkBitPerMM * 2.0
	if !almostEqual(got, want) {
		t.Fatalf("LinkBit(2) = %g, want %g (no repeaters)", got, want)
	}
}

func TestLinkBitRepeaterCount(t *testing.T) {
	m := Tech180 // spacing 3mm, repeater 0.1pJ
	// 7mm wire: ceil(7/3)-1 = 2 repeaters.
	got := m.LinkBit(7.0)
	want := m.LinkBitPerMM*7.0 + 2*m.RepeaterBit
	if !almostEqual(got, want) {
		t.Fatalf("LinkBit(7) = %g, want %g", got, want)
	}
	// Exactly at spacing: no repeater.
	got = m.LinkBit(3.0)
	want = m.LinkBitPerMM * 3.0
	if !almostEqual(got, want) {
		t.Fatalf("LinkBit(3) = %g, want %g", got, want)
	}
}

func TestBitEnergyEquationOne(t *testing.T) {
	m := Model{SwitchBit: 2, LinkBitPerMM: 1, RepeaterSpacingMM: 100}
	// Route with 3 links => 4 switches: Ebit = 4*2 + (1+2+3)*1 = 14.
	got := m.BitEnergy([]float64{1, 2, 3})
	if !almostEqual(got, 14) {
		t.Fatalf("BitEnergy = %g, want 14", got)
	}
}

func TestBitEnergyEmptyRoute(t *testing.T) {
	if Tech180.BitEnergy(nil) != 0 {
		t.Fatal("empty route should cost 0")
	}
}

func TestTransferEnergyScalesWithVolume(t *testing.T) {
	m := Tech100
	one := m.TransferEnergy(1, []float64{2})
	many := m.TransferEnergy(128, []float64{2})
	if !almostEqual(many, 128*one) {
		t.Fatalf("TransferEnergy not linear: %g vs %g", many, 128*one)
	}
}

func TestMinBitEnergyIsLowerBound(t *testing.T) {
	m := Tech180
	// For any actual route spanning >= the straight-line distance, the
	// real energy must be >= the bound.
	dist := 4.0
	bound := m.MinBitEnergy(dist)
	// Candidate real routes covering at least `dist` of wire.
	routes := [][]float64{
		{4.0},
		{2.0, 2.0},
		{1.0, 1.0, 1.0, 1.0},
		{5.0},
		{3.0, 3.0},
	}
	for _, r := range routes {
		if e := m.BitEnergy(r); e < bound-1e-9 {
			t.Fatalf("route %v energy %g below bound %g", r, e, bound)
		}
	}
}

func TestProfiles(t *testing.T) {
	ps := Profiles()
	for _, name := range []string{"180nm", "130nm", "100nm"} {
		m, ok := ps[name]
		if !ok {
			t.Fatalf("missing profile %s", name)
		}
		if m.SwitchBit <= 0 || m.LinkBitPerMM <= 0 {
			t.Fatalf("profile %s has nonpositive energies", name)
		}
	}
	if _, err := ProfileByName("180nm"); err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileByName("7nm"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestScalingAcrossTechnologies(t *testing.T) {
	// Newer nodes must be strictly cheaper per bit for the same route.
	route := []float64{2, 2, 2}
	e180 := Tech180.BitEnergy(route)
	e130 := Tech130.BitEnergy(route)
	e100 := Tech100.BitEnergy(route)
	if !(e180 > e130 && e130 > e100) {
		t.Fatalf("technology scaling violated: %g, %g, %g", e180, e130, e100)
	}
}

// Property: BitEnergy is monotone in route length and in per-link lengths.
func TestPropertyMonotonicity(t *testing.T) {
	m := Tech130
	f := func(a, b uint8) bool {
		l1 := float64(a%50) + 0.5
		l2 := l1 + float64(b%50)
		// Longer single link never cheaper.
		if m.BitEnergy([]float64{l2}) < m.BitEnergy([]float64{l1})-1e-9 {
			return false
		}
		// Adding a link never cheaper.
		return m.BitEnergy([]float64{l1, l2}) >= m.BitEnergy([]float64{l1})-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MinBitEnergy(d) is a true lower bound for any single-link route
// of length >= d.
func TestPropertyMinBoundAdmissible(t *testing.T) {
	m := Tech100
	f := func(a, b uint8) bool {
		d := float64(a % 40)
		extra := float64(b % 10)
		return m.BitEnergy([]float64{d + extra}) >= m.MinBitEnergy(d)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
