package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// testRing builds an n-node ring with the given vnode count.
func testRing(t *testing.T, n, vnodes int, window uint64) *Ring {
	t.Helper()
	cfg := RingConfig{VirtualNodes: vnodes, SegmentWindow: window}
	for i := 0; i < n; i++ {
		cfg.Nodes = append(cfg.Nodes, Node{
			Name: fmt.Sprintf("n%d", i),
			URL:  fmt.Sprintf("http://127.0.0.1:%d", 8000+i),
		})
	}
	r, err := NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sampleKeys draws a deterministic spread of ownership keys.
func sampleKeys(n int) []Key {
	keys := make([]Key, n)
	algs := [...]string{"mickey", "grain", "trivium", "aes-ctr"}
	x := uint64(7)
	for i := range keys {
		x = splitmix(x)
		keys[i] = Key{Alg: algs[i%len(algs)], Domain: x % 512, Window: splitmix(x) % (1 << 24)}
	}
	return keys
}

func TestRingOwnerDeterministic(t *testing.T) {
	a := testRing(t, 5, 64, 1024)
	b := testRing(t, 5, 64, 1024)
	for _, k := range sampleKeys(2000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("identical rings disagree on owner of %+v", k)
		}
	}
}

func TestRingKeyWindowing(t *testing.T) {
	r := testRing(t, 3, 16, 1024)
	// Every segment inside one window maps to the same key; adjacent
	// windows differ.
	k0 := r.Key("grain", 9, 0)
	if got := r.Key("grain", 9, 1023); got != k0 {
		t.Errorf("segments 0 and 1023 split windows: %+v vs %+v", k0, got)
	}
	if got := r.Key("grain", 9, 1024); got.Window != 1 {
		t.Errorf("segment 1024 in window %d, want 1", got.Window)
	}
}

// The consistent-hashing contract: removing a node moves only the keys
// it owned; every key owned by a surviving node keeps its owner.
func TestRingMinimalMovementOnRemove(t *testing.T) {
	const nodes, keys = 8, 20000
	full := testRing(t, nodes, 128, 1024)
	smaller := testRing(t, nodes-1, 128, 1024) // drops n7

	moved := 0
	for _, k := range sampleKeys(keys) {
		was, is := full.Owner(k), smaller.Owner(k)
		if was.Name == "n7" {
			moved++
			continue // had to move: its owner left
		}
		if was != is {
			t.Fatalf("key %+v moved from surviving node %s to %s", k, was.Name, is.Name)
		}
	}
	// The removed node's share ≈ 1/nodes of the keys; allow generous
	// slack for hash variance at 128 vnodes.
	lo, hi := keys/nodes/2, keys/nodes*2
	if moved < lo || moved > hi {
		t.Errorf("removal moved %d of %d keys, want within [%d, %d]", moved, keys, lo, hi)
	}
}

// Adding a node moves keys only TO the new node, ≈1/(n+1) of them.
func TestRingMinimalMovementOnAdd(t *testing.T) {
	const nodes, keys = 8, 20000
	before := testRing(t, nodes, 128, 1024)
	after := testRing(t, nodes+1, 128, 1024) // adds n8

	moved := 0
	for _, k := range sampleKeys(keys) {
		was, is := before.Owner(k), after.Owner(k)
		if was == is {
			continue
		}
		if is.Name != "n8" {
			t.Fatalf("key %+v moved to old node %s (was %s) — not minimal", k, is.Name, was.Name)
		}
		moved++
	}
	lo, hi := keys/(nodes+1)/2, keys/(nodes+1)*2
	if moved < lo || moved > hi {
		t.Errorf("addition moved %d of %d keys, want within [%d, %d]", moved, keys, lo, hi)
	}
}

// Virtual nodes keep per-node shares near uniform.
func TestRingBalance(t *testing.T) {
	const nodes, keys = 6, 30000
	r := testRing(t, nodes, 128, 1024)
	counts := map[string]int{}
	for _, k := range sampleKeys(keys) {
		counts[r.Owner(k).Name]++
	}
	if len(counts) != nodes {
		t.Fatalf("only %d of %d nodes own keys: %v", len(counts), nodes, counts)
	}
	mean := keys / nodes
	for name, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Errorf("node %s owns %d keys (mean %d) — ring badly skewed: %v", name, c, mean, counts)
		}
	}
}

func TestRingCandidatesCompleteAndOwnerFirst(t *testing.T) {
	r := testRing(t, 5, 64, 1024)
	for _, k := range sampleKeys(500) {
		cands := r.Candidates(k)
		if len(cands) != 5 {
			t.Fatalf("got %d candidates, want 5", len(cands))
		}
		if cands[0] != r.Owner(k) {
			t.Fatalf("candidates[0] = %s, owner = %s", cands[0].Name, r.Owner(k).Name)
		}
		seen := map[string]bool{}
		for _, n := range cands {
			if seen[n.Name] {
				t.Fatalf("duplicate candidate %s", n.Name)
			}
			seen[n.Name] = true
		}
	}
}

func TestMovedKeysEstimate(t *testing.T) {
	a := testRing(t, 4, 64, 1024)
	if got := MovedKeys(a, a, 1000); got != 0 {
		t.Errorf("identical rings report %d moved keys", got)
	}
	b := testRing(t, 5, 64, 1024)
	moved := MovedKeys(a, b, 1000)
	if moved == 0 || moved > 1000/3 {
		t.Errorf("adding 1 of 5 nodes moved %d/1000 probe keys", moved)
	}
}

func TestRingSharesCoverAllNodes(t *testing.T) {
	r := testRing(t, 4, 64, 1024)
	shares := r.shares(1000)
	total := 0
	for i := 0; i < 4; i++ {
		c, ok := shares[fmt.Sprintf("n%d", i)]
		if !ok {
			t.Fatalf("node n%d missing from shares %v", i, shares)
		}
		total += c
	}
	if total != 1000 {
		t.Errorf("shares sum %d, want 1000", total)
	}
}

func TestNewRingValidation(t *testing.T) {
	good := []Node{{Name: "a", URL: "http://h:1"}, {Name: "b", URL: "http://h:2"}}
	cases := []struct {
		name string
		cfg  RingConfig
	}{
		{"no nodes", RingConfig{}},
		{"empty name", RingConfig{Nodes: []Node{{URL: "http://h:1"}}}},
		{"dup name", RingConfig{Nodes: []Node{good[0], {Name: "a", URL: "http://h:3"}}}},
		{"bad url", RingConfig{Nodes: []Node{{Name: "a", URL: "not a url"}}}},
		{"no scheme", RingConfig{Nodes: []Node{{Name: "a", URL: "127.0.0.1:8080"}}}},
		{"negative vnodes", RingConfig{VirtualNodes: -1, Nodes: good}},
		{"too many ring points", RingConfig{VirtualNodes: maxRingPoints, Nodes: good}},
	}
	for _, tc := range cases {
		if _, err := NewRing(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	r, err := NewRing(RingConfig{Nodes: good})
	if err != nil {
		t.Fatal(err)
	}
	if r.SegmentWindow() != DefaultSegmentWindow || r.VirtualNodes() != DefaultVirtualNodes {
		t.Errorf("defaults not applied: window %d vnodes %d", r.SegmentWindow(), r.VirtualNodes())
	}
}

func TestParseAndLoadRing(t *testing.T) {
	doc := `{"virtual_nodes": 8, "segment_window": 64,
		"nodes": [{"name": "a", "url": "http://127.0.0.1:1"},
		          {"name": "b", "url": "http://127.0.0.1:2"}]}`
	r, err := ParseRing([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Nodes()) != 2 || r.SegmentWindow() != 64 || r.VirtualNodes() != 8 {
		t.Errorf("parsed ring: %d nodes, window %d, vnodes %d", len(r.Nodes()), r.SegmentWindow(), r.VirtualNodes())
	}

	if _, err := ParseRing([]byte(`{"nodes": [], "bogus": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseRing([]byte(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ParseRing([]byte(doc + `}`)); err == nil {
		t.Error("trailing data accepted")
	}

	path := filepath.Join(t.TempDir(), "ring.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRing(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRing(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
