//go:build !bsrng_nofaultinject

// Package faultinject is a deterministic failpoint registry for chaos
// testing: named code sites call Hit, and a test arms a site to fire on
// an exact hit number (or hit range), so every failure path is driven by
// the test — not by luck. Trigger points can be derived from a seed
// (ArmSeeded), making a whole chaos scenario reproducible from one
// integer.
//
// Cost model: when nothing is armed, Hit is a single atomic load and a
// predicted branch — zero allocations, no locks — so call sites can stay
// compiled into production binaries. Builds that must not carry the
// registry at all can compile it out with the bsrng_nofaultinject build
// tag, which replaces every function with a no-op (see
// faultinject_disabled.go).
//
// Naming scheme: failpoints are named <package>.<site>.<effect>, e.g.
// core.segment.corrupt or cluster.forward.fail (optionally suffixed with
// a scoping label such as the algorithm name:
// server.segment.corrupt.mickey). DESIGN.md §8 lists the registered
// sites.
package faultinject

import (
	"sync"
	"sync/atomic"
)

// point is one armed failpoint: fire when from <= hit counter <= to
// (1-based, inclusive).
type point struct {
	from, to uint64
	hits     atomic.Uint64
	fired    atomic.Uint64
}

var (
	// armedCount gates the Hit fast path: zero means no failpoint is
	// armed anywhere and Hit returns immediately.
	armedCount atomic.Int64
	points     sync.Map // name -> *point
	mu         sync.Mutex
)

// Available reports whether the failpoint registry is compiled in.
func Available() bool { return true }

// Hit records one pass through the named site and reports whether an
// armed trigger fired. Unarmed sites (the production case) cost one
// atomic load.
func Hit(name string) bool {
	if armedCount.Load() == 0 {
		return false
	}
	v, ok := points.Load(name)
	if !ok {
		return false
	}
	p := v.(*point)
	n := p.hits.Add(1)
	if n >= p.from && n <= p.to {
		p.fired.Add(1)
		return true
	}
	return false
}

// Arm sets the named failpoint to fire on exactly the nth Hit (1-based).
// Re-arming an existing point resets its hit counter.
func Arm(name string, nth uint64) { ArmRange(name, nth, nth) }

// ArmRange sets the named failpoint to fire on every Hit numbered
// from..to inclusive (1-based). Re-arming resets the hit counter.
func ArmRange(name string, from, to uint64) {
	if from == 0 || to < from {
		panic("faultinject: invalid hit range")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, loaded := points.Load(name); !loaded {
		armedCount.Add(1)
	}
	points.Store(name, &point{from: from, to: to})
}

// ArmSeeded derives the trigger hit deterministically from (seed, name):
// a splitmix64 draw over the name's FNV hash mapped into [1, window],
// then arms the point on that hit and returns it. The same (seed, name,
// window) always arms the same trigger, which is what makes a chaos run
// reproducible from its failpoint seed alone.
func ArmSeeded(name string, seed, window uint64) uint64 {
	if window == 0 {
		window = 1
	}
	nth := 1 + splitmix(seed^fnv64(name))%window
	Arm(name, nth)
	return nth
}

// Disarm removes the named failpoint (no-op if not armed).
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, loaded := points.LoadAndDelete(name); loaded {
		armedCount.Add(-1)
	}
}

// Reset disarms every failpoint and zeroes all counters.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points.Range(func(k, _ any) bool {
		points.Delete(k)
		armedCount.Add(-1)
		return true
	})
}

// Hits reports how many times the named site has been passed since it
// was (re-)armed; zero for unarmed sites.
func Hits(name string) uint64 {
	if v, ok := points.Load(name); ok {
		return v.(*point).hits.Load()
	}
	return 0
}

// Fired reports how many times the named failpoint has triggered since
// it was (re-)armed; zero for unarmed sites.
func Fired(name string) uint64 {
	if v, ok := points.Load(name); ok {
		return v.(*point).fired.Load()
	}
	return 0
}

// splitmix is the same full-period mixing permutation internal/core uses
// for seed expansion, reused here so trigger derivation is well spread
// even for adjacent seeds.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fnv64 is FNV-1a over the failpoint name.
func fnv64(s string) uint64 {
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001B3
	}
	return h
}
