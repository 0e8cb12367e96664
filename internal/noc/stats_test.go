package noc

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestLatencyMinZeroDelivery pins the sentinel-leak fix: a network that
// delivered nothing must report LatencyMin 0 through the accessor, the
// snapshot's field, and a JSON dump — not the 1<<63-1 accumulator
// initializer.
func TestLatencyMinZeroDelivery(t *testing.T) {
	n := meshNet(t, 2, 2, DefaultConfig())
	st := n.Stats()
	if st.Delivered != 0 {
		t.Fatalf("delivered = %d", st.Delivered)
	}
	if got := st.MinLatency(); got != 0 {
		t.Fatalf("MinLatency() = %d", got)
	}
	if st.LatencyMin != 0 {
		t.Fatalf("snapshot LatencyMin = %d, want 0", st.LatencyMin)
	}
	enc, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(enc), "9223372036854775807") {
		t.Fatalf("sentinel leaked into JSON: %s", enc)
	}
	// After a delivery the real minimum comes through both paths.
	n.Inject(1, 4, 32, "")
	if !n.RunUntilDrained(1000) {
		t.Fatal("did not drain")
	}
	st = n.Stats()
	if st.MinLatency() <= 0 || st.LatencyMin != st.MinLatency() {
		t.Fatalf("post-delivery min = %d / %d", st.MinLatency(), st.LatencyMin)
	}
}

func TestStatsByTag(t *testing.T) {
	n := meshNet(t, 2, 2, DefaultConfig())
	n.Inject(1, 4, 64, "classA")
	n.Inject(2, 3, 64, "classA")
	n.Inject(1, 2, 64, "classB")
	n.Inject(3, 4, 64, "") // untagged: not aggregated
	if !n.RunUntilDrained(100000) {
		t.Fatal("did not drain")
	}
	st := n.Stats()
	a := st.ByTag["classA"]
	if a.Delivered != 2 {
		t.Fatalf("classA delivered = %d", a.Delivered)
	}
	if a.AvgLatency() <= 0 {
		t.Fatalf("classA latency = %g", a.AvgLatency())
	}
	b := st.ByTag["classB"]
	if b.Delivered != 1 {
		t.Fatalf("classB delivered = %d", b.Delivered)
	}
	if _, ok := st.ByTag[""]; ok {
		t.Fatal("untagged packets should not be aggregated")
	}
	// Snapshot isolation: mutating the snapshot must not leak back.
	st.ByTag["classA"] = TagStats{}
	if n.Stats().ByTag["classA"].Delivered != 2 {
		t.Fatal("snapshot aliased live stats")
	}
}

func TestResetStatsWindow(t *testing.T) {
	n := meshNet(t, 3, 3, DefaultConfig())
	// Warm-up phase.
	for i := 0; i < 5; i++ {
		if _, err := n.Inject(1, 9, 64, "warm"); err != nil {
			t.Fatal(err)
		}
	}
	if !n.RunUntilDrained(100000) {
		t.Fatal("warmup did not drain")
	}
	start := n.ResetStats()
	if start != n.Cycle() {
		t.Fatal("window start mismatch")
	}
	st := n.Stats()
	if st.Delivered != 0 || st.TotalSwitchTraversals() != 0 {
		t.Fatalf("counters not cleared: %+v", st)
	}
	// Measurement phase.
	if _, err := n.Inject(2, 8, 64, "measure"); err != nil {
		t.Fatal(err)
	}
	if !n.RunUntilDrained(100000) {
		t.Fatal("measurement did not drain")
	}
	st = n.Stats()
	if st.Delivered != 1 || st.Injected != 1 {
		t.Fatalf("window stats = %+v", st)
	}
	if _, ok := st.ByTag["warm"]; ok {
		t.Fatal("warm-up tag leaked into measurement window")
	}
}

func TestResetStatsMidFlight(t *testing.T) {
	n := meshNet(t, 3, 3, DefaultConfig())
	if _, err := n.Inject(1, 9, 512, ""); err != nil {
		t.Fatal(err)
	}
	n.Step()
	n.Step()
	n.ResetStats()
	// The in-flight packet must still count as injected so it can be
	// delivered within the new window without going negative.
	if !n.RunUntilDrained(100000) {
		t.Fatal("did not drain")
	}
	st := n.Stats()
	if st.Injected != 1 || st.Delivered != 1 {
		t.Fatalf("conservation broken across reset: %+v", st)
	}
}

func TestTagStatsEmpty(t *testing.T) {
	var ts TagStats
	if ts.AvgLatency() != 0 {
		t.Fatal("empty tag latency should be 0")
	}
}

// A link moves at most one flit per cycle, so no link's traversal count
// exceeds the elapsed cycles.
func TestLinkUtilizationBounds(t *testing.T) {
	n := meshNet(t, 4, 4, DefaultConfig())
	trace := UniformRandomTrace(n.Nodes(), 300, 128, 0.05, 31)
	if err := n.ReplayContext(context.Background(), trace, 1_000_000); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if len(st.LinkTraversals) == 0 {
		t.Fatal("no link traversals recorded")
	}
	for k, v := range st.LinkTraversals {
		if v < 0 || v > n.Cycle() {
			t.Fatalf("link %v carried %d flits in %d cycles", k, v, n.Cycle())
		}
	}
}

func TestStatsDescribeContainsSections(t *testing.T) {
	n := meshNet(t, 2, 2, DefaultConfig())
	n.Inject(1, 4, 64, "x")
	n.RunUntilDrained(10000)
	d := n.Stats().Describe()
	for _, want := range []string{"packets:", "latency:", "activity:", "link "} {
		if !strings.Contains(d, want) {
			t.Fatalf("describe missing %q:\n%s", want, d)
		}
	}
}
