package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// aesPin is the pinned reading of one side of the Section 5.2
// comparison at 10 blocks: every AESComparison field, floats in their
// shortest round-trip form (exact to the bit), and the sha256 of the
// network's Stats JSON (per-tag, per-router and per-link counts).
type aesPin struct {
	comparison string
	statsSHA   string
}

var aesPins = map[string]aesPin{
	"custom": {
		comparison: "name=custom cpb=170 tput=75.29411764705883 lat=7.644927536231884 power=1424.8655811764706 energy=2.422271488 links=0 blocks=10",
		statsSHA:   "dd30fc30bfdc9f024187f7050846644e5842e4c769035c7d849cab3f04eb6220",
	},
	"mesh": {
		comparison: "name=mesh cpb=265 tput=48.301886792452834 lat=9.333333333333334 power=1325.2376150943394 energy=3.5118796799999994 links=0 blocks=10",
		statsSHA:   "0352eb524ab7b75aeb2eaddf0a48ff1b6b1c9bb7575ba617ad3a116dd77ab29c",
	},
}

func aesPinNetworks(t *testing.T) map[string]func() *Network {
	res := synthesizeAES(t)
	return map[string]func() *Network{
		"custom": func() *Network {
			net, err := res.NewNetwork(aesNetConfig())
			if err != nil {
				t.Fatal(err)
			}
			return net
		},
		"mesh": func() *Network {
			net, _, err := MeshNetwork(4, 4, GridPlacement(16, 1, 1, 0.2), aesNetConfig())
			if err != nil {
				t.Fatal(err)
			}
			return net
		},
	}
}

func formatAESPin(c *AESComparison) string {
	return fmt.Sprintf("name=%s cpb=%v tput=%v lat=%v power=%v energy=%v links=%d blocks=%d",
		c.Name, c.CyclesPerBlock, c.ThroughputMbps, c.AvgLatency, c.AvgPowerMW,
		c.EnergyPerBlock, c.Links, c.DeliveredBlocks)
}

// TestAESCoSimulationPinned pins the distributed-AES co-simulation's
// output on the customized AES network and on the 4×4 mesh, so a
// rewrite of the driver must reproduce every cycle, delivery and energy
// figure exactly.
func TestAESCoSimulationPinned(t *testing.T) {
	for name, mk := range aesPinNetworks(t) {
		net := mk()
		c, err := RunAES(net, name, 10, Tech180)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stats, err := json.Marshal(net.Stats())
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(stats)
		got := aesPin{comparison: formatAESPin(c), statsSHA: hex.EncodeToString(sum[:])}
		if want := aesPins[name]; got != want {
			t.Errorf("%s:\n got %q\n     %q\nwant %q\n     %q",
				name, got.comparison, got.statsSHA, want.comparison, want.statsSHA)
		}
	}
}

// TestRunAESAllocs bounds the allocations of one 10-block RunAES,
// network construction excluded: the co-simulation's per-cycle work runs
// on dense, reused state.
func TestRunAESAllocs(t *testing.T) {
	const runs = 3
	for name, mk := range aesPinNetworks(t) {
		nets := make([]*Network, runs+1) // AllocsPerRun adds a warm-up call
		for i := range nets {
			nets[i] = mk()
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			net := nets[next]
			next++
			if _, err := RunAES(net, name, 10, Tech180); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 400 {
			t.Errorf("%s: %.0f allocations per 10-block RunAES, want <= 400", name, allocs)
		}
	}
}

// A second RunAES on a network that already ran one reports the same
// figures: cycles, latency and energy are counted from the run's start,
// not from the network's cycle 0.
func TestRunAESRepeatedOnOneNetwork(t *testing.T) {
	for name, mk := range aesPinNetworks(t) {
		net := mk()
		first, err := RunAES(net, "first", 2, Tech180)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		second, err := RunAES(net, "second", 2, Tech180)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		second.Name = first.Name
		if *first != *second {
			t.Errorf("%s: second run %+v, first %+v", name, *second, *first)
		}
	}
}
