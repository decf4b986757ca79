package cluster

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseRing holds ParseRing, the parser of operator-supplied ring
// files, to two properties:
//
//   - arbitrary bytes are either rejected with an error or build a ring
//     that survives its own round trip; they never panic;
//   - a valid RingConfig built from the fuzz inputs round-trips through
//     JSON and ParseRing to a ring equal to NewRing's: the same nodes,
//     virtual node count, segment window and owners.
func FuzzParseRing(f *testing.F) {
	f.Add([]byte(`{"nodes":[{"name":"a","url":"http://127.0.0.1:1"}]}`), "a,b,c", uint16(8), uint32(64))
	f.Add([]byte(`{"virtual_nodes":4294967296,"nodes":[{"name":"a","url":"http://h:1"}]}`), "", uint16(0), uint32(0))
	f.Add([]byte(`{"nodes":[]} trailing`), "node\x00,\xff", uint16(1), uint32(1))
	f.Fuzz(func(t *testing.T, data []byte, names string, vnodes uint16, window uint32) {
		if r, err := ParseRing(data); err == nil {
			roundTrip(t, r, RingConfig{VirtualNodes: r.VirtualNodes(), SegmentWindow: r.SegmentWindow(), Nodes: r.Nodes()})
		}

		cfg := RingConfig{VirtualNodes: int(vnodes % 128), SegmentWindow: uint64(window)}
		seen := map[string]bool{}
		for _, name := range strings.Split(strings.ToValidUTF8(names, "?"), ",") {
			if name == "" || seen[name] {
				continue
			}
			seen[name] = true
			cfg.Nodes = append(cfg.Nodes, Node{Name: name, URL: fmt.Sprintf("http://node%d.test:%d", len(cfg.Nodes), 8000+len(cfg.Nodes))})
		}
		want, err := NewRing(cfg)
		if err != nil {
			if len(cfg.Nodes) != 0 {
				t.Fatalf("valid config %+v rejected: %v", cfg, err)
			}
			return
		}
		roundTrip(t, want, cfg)
	})
}

// roundTrip encodes cfg, parses it back and checks the result matches
// want.
func roundTrip(t *testing.T, want *Ring, cfg RingConfig) {
	t.Helper()
	doc, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseRing(doc)
	if err != nil {
		t.Fatalf("round trip of %s rejected: %v", doc, err)
	}
	if !reflect.DeepEqual(got.Nodes(), want.Nodes()) || got.VirtualNodes() != want.VirtualNodes() ||
		got.SegmentWindow() != want.SegmentWindow() {
		t.Fatalf("round trip of %s changed the ring", doc)
	}
	for _, k := range probeKeys(32) {
		if got.Owner(k) != want.Owner(k) {
			t.Fatalf("round trip of %s moved key %+v", doc, k)
		}
	}
}
