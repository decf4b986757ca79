package trivium

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bitslice"
)

func randKeyIV(rng *rand.Rand) ([]byte, []byte) {
	key := make([]byte, KeySize)
	iv := make([]byte, IVSize)
	rng.Read(key)
	rng.Read(iv)
	return key, iv
}

func TestRefValidation(t *testing.T) {
	if _, err := NewRef(make([]byte, 9), make([]byte, 10)); err == nil {
		t.Error("short key accepted")
	}
	if _, err := NewRef(make([]byte, 10), make([]byte, 9)); err == nil {
		t.Error("short iv accepted")
	}
}

func TestSlicedMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const lanes = 64
	keys := make([][]byte, lanes)
	ivs := make([][]byte, lanes)
	for l := 0; l < lanes; l++ {
		keys[l], ivs[l] = randKeyIV(rng)
	}
	sl, err := NewSlicedVec[bitslice.V64](keys, ivs)
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, lanes)
	for l := range bufs {
		bufs[l] = make([]byte, 56)
	}
	if err := sl.Keystream(bufs); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < lanes; l++ {
		ref, err := NewRef(keys[l], ivs[l])
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 56)
		ref.Keystream(want)
		if !bytes.Equal(bufs[l], want) {
			t.Fatalf("lane %d keystream mismatch\n got %x\nwant %x", l, bufs[l], want)
		}
	}
}

func TestSlicedPartialLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	keys := make([][]byte, 3)
	ivs := make([][]byte, 3)
	for l := range keys {
		keys[l], ivs[l] = randKeyIV(rng)
	}
	sl, err := NewSlicedVec[bitslice.V64](keys, ivs)
	if err != nil {
		t.Fatal(err)
	}
	bufs := [][]byte{make([]byte, 16), make([]byte, 16), make([]byte, 16)}
	if err := sl.Keystream(bufs); err != nil {
		t.Fatal(err)
	}
	for l := range keys {
		ref, _ := NewRef(keys[l], ivs[l])
		want := make([]byte, 16)
		ref.Keystream(want)
		if !bytes.Equal(bufs[l], want) {
			t.Fatalf("lane %d mismatch", l)
		}
	}
}

func TestWindowRebaseSeamless(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	keys := make([][]byte, 2)
	ivs := make([][]byte, 2)
	for l := range keys {
		keys[l], ivs[l] = randKeyIV(rng)
	}
	sl, _ := NewSlicedVec[bitslice.V64](keys, ivs)
	refs := make([]*Ref, len(keys))
	for l := range refs {
		refs[l], _ = NewRef(keys[l], ivs[l])
	}
	for i := 0; i < 1000; i++ { // crosses ~15 window rebases
		z := sl.ClockVec()
		for l, ref := range refs {
			if uint8(z>>uint(l)&1) != ref.KeystreamBit() {
				t.Fatalf("clock %d lane %d diverges from Ref across rebases", i, l)
			}
		}
	}
}

func TestSlicedValidation(t *testing.T) {
	if _, err := NewSlicedVec[bitslice.V64](nil, nil); err == nil {
		t.Error("zero lanes accepted")
	}
	keys := make([][]byte, 65)
	ivs := make([][]byte, 65)
	for i := range keys {
		keys[i] = make([]byte, KeySize)
		ivs[i] = make([]byte, IVSize)
	}
	if _, err := NewSlicedVec[bitslice.V64](keys, ivs); err == nil {
		t.Error("65 lanes accepted")
	}
	if _, err := NewSlicedVec[bitslice.V64](keys[:2], ivs[:1]); err == nil {
		t.Error("count mismatch accepted")
	}
	if _, err := NewSlicedVec[bitslice.V64]([][]byte{make([]byte, 9)}, ivs[:1]); err == nil {
		t.Error("short key accepted")
	}
	if _, err := NewSlicedVec[bitslice.V64](keys[:1], [][]byte{make([]byte, 9)}); err == nil {
		t.Error("short iv accepted")
	}
	sl, _ := NewSlicedVec[bitslice.V64](keys[:2], ivs[:2])
	if err := sl.Keystream(make([][]byte, 1)); err == nil {
		t.Error("wrong buffer count accepted")
	}
	if err := sl.Keystream([][]byte{make([]byte, 8), make([]byte, 16)}); err == nil {
		t.Error("ragged buffers accepted")
	}
	if err := sl.Keystream([][]byte{make([]byte, 9), make([]byte, 9)}); err == nil {
		t.Error("non multiple-of-8 accepted")
	}
}

func TestDistinctIVsDistinctStreams(t *testing.T) {
	key := make([]byte, KeySize)
	iv1 := make([]byte, IVSize)
	iv2 := make([]byte, IVSize)
	iv2[9] = 1
	a, _ := NewRef(key, iv1)
	b, _ := NewRef(key, iv2)
	ka := make([]byte, 64)
	kb := make([]byte, 64)
	a.Keystream(ka)
	b.Keystream(kb)
	if bytes.Equal(ka, kb) {
		t.Fatal("different IVs produced identical keystreams")
	}
}

func TestDeterministicReproduction(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	key, iv := randKeyIV(rng)
	a, _ := NewRef(key, iv)
	b, _ := NewRef(key, iv)
	ka := make([]byte, 128)
	kb := make([]byte, 128)
	a.Keystream(ka)
	b.Keystream(kb)
	if !bytes.Equal(ka, kb) {
		t.Fatal("same key/IV diverged")
	}
}

func TestKeystreamBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	key, iv := randKeyIV(rng)
	g, _ := NewRef(key, iv)
	const n = 1 << 15
	ones := 0
	for i := 0; i < n; i++ {
		ones += int(g.KeystreamBit())
	}
	mean, sigma := float64(n)/2, 90.5
	if d := float64(ones) - mean; d > 5*sigma || d < -5*sigma {
		t.Fatalf("keystream bias: %d ones of %d", ones, n)
	}
}

// The state after initialization must never be all-zero (the degenerate
// fixed point); the three seeded ones in register C guarantee it.
func TestZeroKeyZeroIVNotDegenerate(t *testing.T) {
	g, _ := NewRef(make([]byte, KeySize), make([]byte, IVSize))
	buf := make([]byte, 64)
	g.Keystream(buf)
	var zero [64]byte
	if bytes.Equal(buf, zero[:]) {
		t.Fatal("zero key/IV produced the all-zero keystream")
	}
}

func BenchmarkRefKeystream(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	key, iv := randKeyIV(rng)
	g, _ := NewRef(key, iv)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Keystream(buf)
	}
}

func BenchmarkSlicedKeystream64Lanes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, 64)
	ivs := make([][]byte, 64)
	for l := range keys {
		keys[l], ivs[l] = randKeyIV(rng)
	}
	g, _ := NewSlicedVec[bitslice.V64](keys, ivs)
	dst := make([]uint64, 512)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] = g.ClockVec()
		}
	}
}
