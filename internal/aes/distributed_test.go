package aes

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/floorplan"
	"repro/internal/noc"
	"repro/internal/primitives"
	"repro/internal/routing"
	"repro/internal/topology"
)

func meshNetwork(t *testing.T) *noc.Network {
	t.Helper()
	arch, err := topology.Mesh(4, 4, floorplan.Grid(16, 1, 1, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	table, err := routing.XY(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := routing.AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := noc.New(noc.DefaultConfig(), arch, table, vc)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func customNetwork(t *testing.T) *noc.Network {
	t.Helper()
	acg := ACG(0.1)
	res, err := core.Solve(core.Problem{
		ACG:     acg,
		Library: primitives.MustDefault(),
		Energy:  energy.Tech180,
		Options: core.Options{Mode: core.CostLinks, Timeout: 30 * time.Second},
	})
	if err != nil || res.Best == nil {
		t.Fatalf("decompose: %v", err)
	}
	arch, err := topology.FromDecomposition("aes-custom", acg, res.Best, floorplan.Grid(16, 1, 1, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	table, err := routing.Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := routing.AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := noc.New(noc.DefaultConfig(), arch, table, vc)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func referenceCiphertext(t *testing.T, key, pt []byte) []byte {
	t.Helper()
	ks, err := ExpandKey(key)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Encrypt(ks, pt)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func TestDistributedOnMeshMatchesReference(t *testing.T) {
	key := []byte("0123456789abcdef")
	pt := []byte("the block to enc")
	ks, _ := ExpandKey(key)
	net := meshNetwork(t)
	res, err := EncryptDistributed(net, ks, [][]byte{pt}, DefaultDistConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := referenceCiphertext(t, key, pt)
	if !bytes.Equal(res.Ciphertexts[0], want) {
		t.Fatalf("distributed ct = %x, want %x", res.Ciphertexts[0], want)
	}
	if res.CyclesPerBlock <= 0 {
		t.Fatalf("cycles/block = %g", res.CyclesPerBlock)
	}
}

func TestDistributedOnCustomTopologyMatchesReference(t *testing.T) {
	key := []byte("fedcba9876543210")
	pt := []byte("another 16B blk!")
	ks, _ := ExpandKey(key)
	net := customNetwork(t)
	res, err := EncryptDistributed(net, ks, [][]byte{pt}, DefaultDistConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := referenceCiphertext(t, key, pt)
	if !bytes.Equal(res.Ciphertexts[0], want) {
		t.Fatalf("distributed ct = %x, want %x", res.Ciphertexts[0], want)
	}
}

func TestDistributedMultipleBlocksSequential(t *testing.T) {
	key := []byte("0123456789abcdef")
	ks, _ := ExpandKey(key)
	rng := rand.New(rand.NewSource(5))
	var blocks [][]byte
	for i := 0; i < 3; i++ {
		b := make([]byte, 16)
		rng.Read(b)
		blocks = append(blocks, b)
	}
	net := meshNetwork(t)
	res, err := EncryptDistributed(net, ks, blocks, DefaultDistConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ciphertexts) != 3 {
		t.Fatalf("got %d ciphertexts", len(res.Ciphertexts))
	}
	for i, b := range blocks {
		want := referenceCiphertext(t, key, b)
		if !bytes.Equal(res.Ciphertexts[i], want) {
			t.Fatalf("block %d: ct = %x, want %x", i, res.Ciphertexts[i], want)
		}
	}
	// Cycles per block should be the mean of a steady per-block cost.
	if res.CyclesPerBlock <= 0 || res.TotalCycles <= 0 {
		t.Fatalf("timing: %+v", res)
	}
}

func TestDistributedCustomFasterThanMesh(t *testing.T) {
	// The headline claim of Section 5.2: the customized architecture
	// encrypts a block in fewer cycles than the mesh (paper: 199 vs 271).
	key := []byte("0123456789abcdef")
	pt := []byte("throughput block")
	ks, _ := ExpandKey(key)

	mesh := meshNetwork(t)
	mres, err := EncryptDistributed(mesh, ks, [][]byte{pt, pt, pt}, DefaultDistConfig())
	if err != nil {
		t.Fatal(err)
	}
	custom := customNetwork(t)
	cres, err := EncryptDistributed(custom, ks, [][]byte{pt, pt, pt}, DefaultDistConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cres.CyclesPerBlock >= mres.CyclesPerBlock {
		t.Fatalf("custom %.1f cycles/block not faster than mesh %.1f",
			cres.CyclesPerBlock, mres.CyclesPerBlock)
	}
	// Average packet latency should also improve (paper: 9.6 vs 11.5).
	if cres.Stats.AvgLatency() >= mres.Stats.AvgLatency() {
		t.Fatalf("custom latency %.2f not below mesh %.2f",
			cres.Stats.AvgLatency(), mres.Stats.AvgLatency())
	}
}

func TestDistributedValidation(t *testing.T) {
	ks, _ := ExpandKey(make([]byte, 16))
	if _, err := EncryptDistributed(nil, ks, [][]byte{make([]byte, 16)}, DefaultDistConfig()); err == nil {
		t.Fatal("nil network accepted")
	}
	net := meshNetwork(t)
	if _, err := EncryptDistributed(net, ks, nil, DefaultDistConfig()); err == nil {
		t.Fatal("no blocks accepted")
	}
	if _, err := EncryptDistributed(net, ks, [][]byte{make([]byte, 8)}, DefaultDistConfig()); err == nil {
		t.Fatal("short block accepted")
	}
	bad := DefaultDistConfig()
	bad.MaxCycles = 0
	if _, err := EncryptDistributed(net, ks, [][]byte{make([]byte, 16)}, bad); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestDistributedMaxCyclesIsPerBlock(t *testing.T) {
	// The guard bounds each block from its own start cycle, so a bound
	// above one block's length holds for any number of blocks even
	// though the run as a whole takes longer.
	key := []byte("0123456789abcdef")
	ks, _ := ExpandKey(key)
	rng := rand.New(rand.NewSource(7))
	blocks := make([][]byte, 3)
	for i := range blocks {
		blocks[i] = make([]byte, BlockBytes)
		rng.Read(blocks[i])
	}
	cfg := DistConfig{ComputeCycles: 2, MaxCycles: 300}
	res, err := EncryptDistributed(meshNetwork(t), ks, blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles <= cfg.MaxCycles || res.CyclesPerBlock > float64(cfg.MaxCycles) {
		t.Fatalf("run took %d cycles (%.1f per block): want more than %d in all, at most %d per block",
			res.TotalCycles, res.CyclesPerBlock, cfg.MaxCycles, cfg.MaxCycles)
	}
	for i, b := range blocks {
		if want := referenceCiphertext(t, key, b); !bytes.Equal(res.Ciphertexts[i], want) {
			t.Fatalf("block %d: ct = %x, want %x", i, res.Ciphertexts[i], want)
		}
	}
}

func TestDistributedDeadlockGuard(t *testing.T) {
	// A bound below one block's length still stops the run.
	ks, _ := ExpandKey(make([]byte, KeyBytes))
	cfg := DistConfig{ComputeCycles: 2, MaxCycles: 50}
	_, err := EncryptDistributed(meshNetwork(t), ks, [][]byte{make([]byte, BlockBytes)}, cfg)
	if err == nil || !strings.Contains(err.Error(), "possible deadlock") {
		t.Fatalf("err = %v, want the deadlock error", err)
	}
}

func TestMixRowMatchesGMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		var a [4]byte
		rng.Read(a[:])
		for r := 0; r < 4; r++ {
			var want byte
			for j := 0; j < 4; j++ {
				want ^= gmul(MixColumnCoeff(r, j), a[j])
			}
			if got := mixRow(a, r); got != want {
				t.Fatalf("mixRow(%x, %d) = %#x, want %#x", a, r, got, want)
			}
		}
	}
}
