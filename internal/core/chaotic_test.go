package core

import (
	"bytes"
	"testing"

	"repro/internal/chaotic"
)

func TestParseAlgorithmChaotic(t *testing.T) {
	for _, base := range Algorithms {
		spelled := "chaotic(" + base.String() + ")"
		alg, err := ParseAlgorithm(spelled)
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", spelled, err)
		}
		if !alg.IsChaotic() || alg.Base() != base {
			t.Errorf("ParseAlgorithm(%q) = %v (base %v)", spelled, alg, alg.Base())
		}
		if alg.String() != spelled {
			t.Errorf("%v.String() = %q, want %q", alg, alg.String(), spelled)
		}
	}
	if alg, err := ParseAlgorithm("  CHAOTIC(Grain) "); err != nil || alg != Chaotic(GRAIN) {
		t.Errorf("case/space-insensitive parse = %v, %v", alg, err)
	}
	for _, bad := range []string{"chaotic(", "chaotic()", "chaotic(nope)", "chaotic(chaotic(grain))"} {
		if _, err := ParseAlgorithm(bad); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted", bad)
		}
	}
	if got := Chaotic(Chaotic(TRIVIUM)); got != Chaotic(TRIVIUM) {
		t.Errorf("Chaotic is not idempotent: %v", got)
	}
	if MICKEY.IsChaotic() || MICKEY.Base() != MICKEY {
		t.Error("plain algorithm misreports chaotic state")
	}
}

func TestParseAlgorithms(t *testing.T) {
	for _, blank := range []string{"", "  "} {
		if algs, err := ParseAlgorithms(blank); err != nil || algs != nil {
			t.Errorf("ParseAlgorithms(%q) = %v, %v; want nil, nil (the default set)", blank, algs, err)
		}
	}
	algs, err := ParseAlgorithms(" mickey,\tTrivium ,chaotic(grain),aes")
	if err != nil {
		t.Fatal(err)
	}
	want := []Algorithm{MICKEY, TRIVIUM, Chaotic(GRAIN), AESCTR}
	if len(algs) != len(want) {
		t.Fatalf("parsed %v, want %v", algs, want)
	}
	for i := range want {
		if algs[i] != want[i] {
			t.Errorf("parsed %v, want %v", algs, want)
		}
	}
	for _, bad := range []string{"mickey,rot13", "grain,", "chaotic(grain"} {
		if _, err := ParseAlgorithms(bad); err == nil {
			t.Errorf("ParseAlgorithms(%q) accepted", bad)
		}
	}
}

// The chaotic mode must preserve the canonical-stream property: byte
// streams identical at every lane width, for both the Generator and the
// Stream front doors.
func TestChaoticLaneWidthIndependence(t *testing.T) {
	alg := Chaotic(GRAIN)
	const n = 3*SegmentBytes + 100
	ref := make([]byte, n)
	g, err := NewGeneratorLanes(alg, 11, 64)
	if err != nil {
		t.Fatal(err)
	}
	g.Read(ref)
	for _, lanes := range []int{256, 512} {
		g, err := NewGeneratorLanes(alg, 11, lanes)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, n)
		g.Read(got)
		if !bytes.Equal(got, ref) {
			t.Errorf("lanes=%d diverges from 64-lane stream", lanes)
		}
	}
}

// The composition must actually transform the bytes — and do exactly
// what internal/chaotic.Post specifies: undoing it with the documented
// x_0 schedule must recover the base engine's segment.
func TestChaoticComposition(t *testing.T) {
	const seed = 5
	base := make([]byte, SegmentBytes)
	gb, err := NewGenerator(TRIVIUM, seed)
	if err != nil {
		t.Fatal(err)
	}
	gb.Read(base)

	post := make([]byte, SegmentBytes)
	gc, err := NewGenerator(Chaotic(TRIVIUM), seed)
	if err != nil {
		t.Fatal(err)
	}
	gc.Read(post)
	if bytes.Equal(base, post) {
		t.Fatal("chaotic mode did not change the stream")
	}

	chaotic.Unpost(post, chaoticX0(seed, 0, 0))
	if !bytes.Equal(base, post) {
		t.Fatal("chaotic stream is not Post(base stream) under the documented x_0 schedule")
	}
}

// Distinct seeds and distinct base engines must give distinct chaotic
// streams, and the x_0 schedule must be domain-separated from the inner
// key material (different tweak constant ⇒ different draw).
func TestChaoticStreamsDecorrelated(t *testing.T) {
	read := func(alg Algorithm, seed uint64) []byte {
		g, err := NewGenerator(alg, seed)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 512)
		g.Read(b)
		return b
	}
	a := read(Chaotic(GRAIN), 1)
	if bytes.Equal(a, read(Chaotic(GRAIN), 2)) {
		t.Error("chaotic streams identical across seeds")
	}
	if bytes.Equal(a, read(Chaotic(MICKEY), 1)) {
		t.Error("chaotic streams identical across base engines")
	}
	sm := splitMix64{s: 1 ^ 0xD1342543DE82EF95*0}
	sm.next()
	if chaoticX0(1, 0, 0) == sm.next() {
		t.Error("x_0 schedule collides with inner key material schedule")
	}
}

// XORGENS is a first-class engine: its generator must be deterministic,
// lane-width independent, and distinct from every other engine.
func TestXorgensEngineStream(t *testing.T) {
	ref := make([]byte, 2*SegmentBytes)
	g, err := NewGeneratorLanes(XORGENS, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	g.Read(ref)
	for _, lanes := range []int{256, 512} {
		g, err := NewGeneratorLanes(XORGENS, 3, lanes)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(ref))
		g.Read(got)
		if !bytes.Equal(got, ref) {
			t.Errorf("xorgens lanes=%d diverges from 64-lane stream", lanes)
		}
	}
	for _, other := range []Algorithm{MICKEY, GRAIN, AESCTR, TRIVIUM} {
		o, err := NewGenerator(other, 3)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(ref))
		o.Read(got)
		if bytes.Equal(got, ref) {
			t.Errorf("xorgens stream identical to %v", other)
		}
	}
}
