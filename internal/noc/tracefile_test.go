package noc

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestTraceRoundTrip(t *testing.T) {
	trace := UniformRandomTrace(graph.Range(1, 9), 50, 64, 0.1, 3)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trace, back) {
		t.Fatal("trace round trip changed events")
	}
}

func TestReadTraceRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"self-addressed": `[{"Cycle":0,"Src":1,"Dst":1,"Bits":32}]`,
		"zero bits":      `[{"Cycle":0,"Src":1,"Dst":2,"Bits":0}]`,
		"negative cycle": `[{"Cycle":-1,"Src":1,"Dst":2,"Bits":32}]`,
		"out of order":   `[{"Cycle":5,"Src":1,"Dst":2,"Bits":32},{"Cycle":1,"Src":2,"Dst":3,"Bits":32}]`,
		"not json":       `hello`,
	}
	for name, raw := range cases {
		if _, err := ReadTrace(strings.NewReader(raw)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestReplayFromFileEquivalent(t *testing.T) {
	n1 := meshNet(t, 3, 3, DefaultConfig())
	trace := UniformRandomTrace(n1.Nodes(), 80, 64, 0.05, 9)
	if err := n1.ReplayContext(context.Background(), trace, 1_000_000); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n2 := meshNet(t, 3, 3, DefaultConfig())
	if err := n2.ReplayContext(context.Background(), loaded, 1_000_000); err != nil {
		t.Fatal(err)
	}
	s1, s2 := n1.Stats(), n2.Stats()
	if s1.Delivered != s2.Delivered || s1.LatencySum != s2.LatencySum || n1.Cycle() != n2.Cycle() {
		t.Fatalf("replay from file diverged: %+v vs %+v", s1, s2)
	}
}
