// Package cluster is the multi-node tier of the bsrngd serving stack: a
// consistent-hash ring partitioning the deterministic segment address
// space across N bsrngd nodes, and a router that proxies /bytes,
// /stream and the lease endpoints to the owning node with health-aware
// failover to any replica.
//
// The partition key is (algorithm, domain, segment window): every byte
// bsrngd serves on an addressed path is a pure function of
// (alg, seed, domain, segment), so ownership is purely a load-placement
// decision — any node sharing the seed produces byte-identical output
// for any window, which is what makes failover sound (DESIGN.md §13).
// Segment indices are grouped into windows of SegmentWindow segments so
// one lease or one long addressed read stays on one node.
//
// Membership is a static ring config (ring.json) with minimal-movement
// rebalance semantics: adding or removing a node remaps only the keys
// whose ring arc the change touches (≈1/N of the space), never keys
// between two surviving nodes.
//
// The router's only settings are the ring and its file. Its timings are
// constants: a failing request moves through every node of its ring,
// 25ms apart, for at most 10s, and each node's /healthz is probed every
// 2s with a 1s timeout.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"sort"
	"strings"
)

const (
	// DefaultVirtualNodes is the per-node virtual point count; more
	// points smooth the ownership shares at the cost of a larger ring.
	DefaultVirtualNodes = 64
	// DefaultSegmentWindow is how many consecutive segments share one
	// owner (1024 segments = 2 MiB of stream per ownership window).
	DefaultSegmentWindow = 1024
	// maxRingPoints bounds nodes × virtual_nodes, so a ring file cannot
	// make NewRing allocate without limit (1024 nodes at the default).
	maxRingPoints = 1 << 16
)

// Node is one bsrngd member of the ring.
type Node struct {
	// Name identifies the node in metrics and healthz output; it is also
	// the ring-point salt, so renaming a node remaps its share.
	Name string `json:"name"`
	// URL is the node's base URL, e.g. "http://10.0.0.7:8080".
	URL string `json:"url"`
}

// RingConfig is the JSON shape of a ring file (bsrngd -router -ring).
type RingConfig struct {
	// VirtualNodes per member (default DefaultVirtualNodes).
	VirtualNodes int `json:"virtual_nodes,omitempty"`
	// SegmentWindow is the ownership granularity in segments (default
	// DefaultSegmentWindow).
	SegmentWindow uint64 `json:"segment_window,omitempty"`
	Nodes         []Node `json:"nodes"`
}

// Key names one ownership unit of the served address space.
type Key struct {
	Alg    string
	Domain uint64
	// Window is the segment window index (segment / SegmentWindow).
	Window uint64
}

// ringPoint is one virtual node position on the hash circle.
type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// Ring is an immutable consistent-hash ring; the router swaps whole
// rings on reload instead of mutating one in place.
type Ring struct {
	nodes  []Node
	window uint64
	vnodes int
	points []ringPoint // sorted by hash
}

// NewRing validates the config and builds the ring.
func NewRing(cfg RingConfig) (*Ring, error) {
	if cfg.VirtualNodes == 0 {
		cfg.VirtualNodes = DefaultVirtualNodes
	}
	if cfg.VirtualNodes < 1 {
		return nil, fmt.Errorf("cluster: virtual_nodes %d out of range", cfg.VirtualNodes)
	}
	if cfg.SegmentWindow == 0 {
		cfg.SegmentWindow = DefaultSegmentWindow
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring has no nodes")
	}
	if cfg.VirtualNodes > maxRingPoints/len(cfg.Nodes) {
		return nil, fmt.Errorf("cluster: %d nodes × %d virtual_nodes exceeds %d ring points",
			len(cfg.Nodes), cfg.VirtualNodes, maxRingPoints)
	}
	seen := make(map[string]bool, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("cluster: node with empty name")
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
		u, err := url.Parse(n.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: node %q has invalid url %q", n.Name, n.URL)
		}
	}
	r := &Ring{
		nodes:  append([]Node(nil), cfg.Nodes...),
		window: cfg.SegmentWindow,
		vnodes: cfg.VirtualNodes,
		points: make([]ringPoint, 0, len(cfg.Nodes)*cfg.VirtualNodes),
	}
	for i, n := range r.nodes {
		for v := 0; v < cfg.VirtualNodes; v++ {
			h := fnv64(fmt.Sprintf("vnode|%s|%d", n.Name, v))
			r.points = append(r.points, ringPoint{hash: h, node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// ParseRing decodes a ring config document — one JSON object, nothing
// after it — and builds the ring.
func ParseRing(data []byte) (*Ring, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var cfg RingConfig
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("cluster: ring config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("cluster: ring config: trailing data after the JSON object")
	}
	return NewRing(cfg)
}

// LoadRing reads and parses a ring config file.
func LoadRing(path string) (*Ring, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return ParseRing(data)
}

// Nodes returns the ring members in config order.
func (r *Ring) Nodes() []Node { return append([]Node(nil), r.nodes...) }

// SegmentWindow is the ownership granularity in segments.
func (r *Ring) SegmentWindow() uint64 { return r.window }

// VirtualNodes is the per-node virtual point count.
func (r *Ring) VirtualNodes() int { return r.vnodes }

// Key maps an absolute segment index to its ownership key.
func (r *Ring) Key(alg string, domain, segment uint64) Key {
	return Key{Alg: alg, Domain: domain, Window: segment / r.window}
}

// Owner returns the node owning the key: the first virtual point at or
// clockwise of the key's hash.
func (r *Ring) Owner(k Key) Node {
	return r.nodes[r.points[r.search(k)].node]
}

// Candidates returns every node ordered by the ring walk from the key's
// hash: the owner first, then each distinct successor. Determinism makes
// every entry a byte-identical fallback for addressed traffic, so this
// is the router's failover order.
func (r *Ring) Candidates(k Key) []Node {
	out := make([]Node, 0, len(r.nodes))
	seen := make([]bool, len(r.nodes))
	for i, start := 0, r.search(k); i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}

// search locates the first ring point at or clockwise of the key hash.
func (r *Ring) search(k Key) int {
	h := keyHash(k)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// probeKeys is the deterministic sample MovedKeys and ownership-share
// accounting draw from: a spread of (alg, domain, window) triples.
func probeKeys(n int) []Key {
	keys := make([]Key, n)
	algs := [...]string{"mickey", "grain", "aes-ctr", "trivium", "xorgens", "chaotic(grain)"}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range keys {
		x = splitmix(x)
		keys[i] = Key{
			Alg:    algs[int(x%uint64(len(algs)))],
			Domain: splitmix(x) % 1024,
			Window: splitmix(x^0xD1B54A32D192ED03) % (1 << 20),
		}
	}
	return keys
}

// MovedKeys reports how many of n deterministic probe keys change owner
// between two rings — the rebalance cost estimate the router exposes on
// reload. For a minimal-movement ring this stays near n/len(nodes) when
// one node is added or removed.
func MovedKeys(old, new *Ring, n int) int {
	moved := 0
	for _, k := range probeKeys(n) {
		if old.Owner(k).Name != new.Owner(k).Name {
			moved++
		}
	}
	return moved
}

// shares reports how many of n probe keys each node owns, keyed by node
// name — the ring-skew view (per-node gauges on /metrics).
func (r *Ring) shares(n int) map[string]int {
	out := make(map[string]int, len(r.nodes))
	for _, nd := range r.nodes {
		out[nd.Name] = 0
	}
	for _, k := range probeKeys(n) {
		out[r.Owner(k).Name]++
	}
	return out
}

// keyHash positions an ownership key on the circle.
func keyHash(k Key) uint64 {
	return fnv64(fmt.Sprintf("key|%s|%d|%d", k.Alg, k.Domain, k.Window))
}

// fnv64 is FNV-1a, the repo's standard name hash (matches
// internal/faultinject's trigger derivation).
func fnv64(s string) uint64 {
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001B3
	}
	return h
}

// splitmix is the repo's standard mixing permutation, used here to
// spread the probe-key sample.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
