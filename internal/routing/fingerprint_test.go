package routing

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/randgraph"
	"repro/internal/topology"
)

// routedFixture is one architecture with its route source, as the
// fingerprint goldens and the deadlock oracle consume it. Dense fixtures
// carry a Table compiled over every ordered pair; sparse fixtures carry
// a demand-driven router and the demand it covers.
type routedFixture struct {
	name   string
	arch   *topology.Architecture
	dense  bool
	table  Table
	router Router
	demand *PairSet
}

// pairs returns the traffic pairs VC assignment covers: nil (all ordered
// pairs) for dense fixtures, the demand for sparse ones.
func (f routedFixture) pairs() [][2]graph.NodeID {
	if f.dense {
		return nil
	}
	return f.demand.NodePairs(f.arch.Graph().Freeze().IDs())
}

// compile runs VC assignment and the compile the fixture's layout calls
// for.
func (f routedFixture) compile(t *testing.T) (VCAssignment, *CompiledTable) {
	t.Helper()
	vc, err := AssignVirtualChannels(f.router, f.arch, f.pairs())
	if err != nil {
		t.Fatalf("%s: VC assignment: %v", f.name, err)
	}
	var ct *CompiledTable
	if f.dense {
		ct, err = CompileTable(f.table, f.arch, vc)
	} else {
		ct, err = CompileTablePairs(f.router, f.arch, vc, f.demand)
	}
	if err != nil {
		t.Fatalf("%s: compile: %v", f.name, err)
	}
	return vc, ct
}

// baArch projects a Barabási–Albert graph (m = 2) onto an undirected
// architecture, one link per connected node pair.
func baArch(t testing.TB, n int, seed int64) *topology.Architecture {
	t.Helper()
	g, err := randgraph.BarabasiAlbert(n, 2, 8, 64, seed)
	if err != nil {
		t.Fatal(err)
	}
	arch := topology.New(g.Name(), g.Nodes(), nil)
	for _, e := range g.Edges() {
		if e.From != e.To && !arch.HasLink(e.From, e.To) {
			if err := arch.AddLink(e.From, e.To, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return arch
}

// chordRing is a 12-node ring with two chords: shortest-path routes over
// it form a cyclic channel dependency graph.
func chordRing(t testing.TB) *topology.Architecture {
	t.Helper()
	ring := topology.New("chordring", graph.Range(1, 12), nil)
	for i := 1; i <= 12; i++ {
		if err := ring.AddLink(graph.NodeID(i), graph.NodeID(i%12+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, chord := range [][2]graph.NodeID{{1, 7}, {4, 10}} {
		if err := ring.AddLink(chord[0], chord[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	return ring
}

// routedFixtures returns the fingerprint families: Barabási–Albert
// graphs at three sizes and three seeds each (one degree sequence can
// route differently under another seed), the 4×4 XY mesh, the AES custom
// architecture with its schedule routes, the two-route preferred-route
// conflict of TestBuildConflictingPreferredRouteKeepsPrefix (the AES
// routes install without a conflict), a chorded ring, and a 2116-node
// scale-free network routed sparsely for an 8-hub hotspot.
func routedFixtures(t *testing.T) []routedFixture {
	t.Helper()
	var out []routedFixture
	dense := func(name string, arch *topology.Architecture) {
		table, err := Build(arch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, routedFixture{name: name, arch: arch, dense: true, table: table, router: table})
	}
	for _, n := range []int{64, 256, 1000} {
		for _, seed := range []int64{5, 77, 4242} {
			if n >= 1000 && testing.Short() {
				continue
			}
			dense(fmt.Sprintf("ba%d-s%d", n, seed), baArch(t, n, seed))
		}
	}
	mesh := meshArch(t, 4, 4)
	xy, err := XY(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, routedFixture{name: "mesh4x4-xy", arch: mesh, dense: true, table: xy, router: xy})
	aes, _ := customAESArch(t)
	dense("aes-custom", aes)
	dense("conflict-prefix", conflictArch(t))
	dense("chordring", chordRing(t))

	if !testing.Short() {
		arch := baArch(t, 2116, 5)
		sr, err := NewSparseRouter(arch)
		if err != nil {
			t.Fatal(err)
		}
		n := sr.Frozen().NodeCount()
		demand := NewPairSet(n)
		for s := 0; s < n; s++ {
			for h := 0; h < 8; h++ {
				if h != s {
					demand.Add(s, h)
				}
			}
		}
		rs, err := sr.Precompute(demand, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, routedFixture{name: "ba2116-hotspot8-sparse", arch: arch, router: rs, demand: demand})
	}
	return out
}

// fingerprintGolden is one committed record of testdata/fingerprints.golden.json.
type fingerprintGolden struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	NumVCs      int    `json:"numVCs"`
	TableSHA256 string `json:"tableSHA256,omitempty"`
	VCsSHA256   string `json:"vcsSHA256"`
}

func sha256JSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCompiledFingerprintGoldens pins every fixture family's compiled
// plans, VC count and Table/VCAssignment wire bytes against records taken
// from the map-of-maps table implementation: any change to the route
// representation must leave them byte-identical. Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/routing -run TestCompiledFingerprintGoldens
//
// only for an intended semantic change. Under -short the 1000- and
// 2116-node fixtures are skipped.
func TestCompiledFingerprintGoldens(t *testing.T) {
	path := filepath.Join("testdata", "fingerprints.golden.json")
	var got []fingerprintGolden
	for _, f := range routedFixtures(t) {
		vc, ct := f.compile(t)
		fp := ct.Fingerprint()
		rec := fingerprintGolden{
			Name:        f.name,
			Fingerprint: hex.EncodeToString(fp[:]),
			NumVCs:      ct.NumVCs(),
			VCsSHA256:   sha256JSON(t, vc),
		}
		if f.dense {
			rec.TableSHA256 = sha256JSON(t, f.table)
		}
		got = append(got, rec)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if testing.Short() {
			t.Fatal("regenerate goldens without -short")
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []fingerprintGolden
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&want); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]fingerprintGolden, len(want))
	for _, w := range want {
		byName[w.Name] = w
	}
	for _, g := range got {
		w, ok := byName[g.Name]
		if !ok {
			t.Errorf("%s: no golden record", g.Name)
			continue
		}
		if g != w {
			t.Errorf("%s drifted:\n got  %+v\n want %+v", g.Name, g, w)
		}
	}
	if !testing.Short() && len(got) != len(want) {
		t.Errorf("computed %d fixtures, golden has %d", len(got), len(want))
	}
}
