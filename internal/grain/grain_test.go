package grain

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
	if _, err := NewRef(make([]byte, 9), make([]byte, 8)); err == nil {
		t.Error("short key accepted")
	}
	if _, err := NewRef(make([]byte, 10), make([]byte, 7)); err == nil {
		t.Error("short iv accepted")
	}
}

func TestSlicedMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
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
		bufs[l] = make([]byte, 48)
	}
	if err := sl.Keystream(bufs); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < lanes; l++ {
		ref, err := NewRef(keys[l], ivs[l])
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 48)
		ref.Keystream(want)
		if !bytes.Equal(bufs[l], want) {
			t.Fatalf("lane %d keystream mismatch\n got %x\nwant %x", l, bufs[l], want)
		}
	}
}

func TestSlicedPartialLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const lanes = 5
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
		bufs[l] = make([]byte, 24)
	}
	if err := sl.Keystream(bufs); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < lanes; l++ {
		ref, _ := NewRef(keys[l], ivs[l])
		want := make([]byte, 24)
		ref.Keystream(want)
		if !bytes.Equal(bufs[l], want) {
			t.Fatalf("lane %d mismatch", l)
		}
	}
}

// Window rebase must be seamless: generate across many windows and
// compare word-by-word against a fresh engine.
func TestSlicedWindowRebaseSeamless(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	keys := make([][]byte, 3)
	ivs := make([][]byte, 3)
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
	if _, err := NewSlicedVec[bitslice.V64](keys[:1], [][]byte{make([]byte, 7)}); err == nil {
		t.Error("short iv accepted")
	}
	short := append([][]byte{}, keys[:4]...)
	short[3] = make([]byte, KeySize-1)
	if _, err := NewSlicedVec[bitslice.V64](short, ivs[:4]); err == nil ||
		err.Error() != "grain: lane 3: key must be 10 bytes" {
		t.Errorf("short lane-3 key: err = %v, want %q", err, "grain: lane 3: key must be 10 bytes")
	}
	sl, _ := NewSlicedVec[bitslice.V64](keys[:2], ivs[:2])
	if err := sl.Keystream(make([][]byte, 1)); err == nil {
		t.Error("wrong buffer count accepted")
	}
	if err := sl.Keystream([][]byte{make([]byte, 8), make([]byte, 16)}); err == nil {
		t.Error("ragged buffers accepted")
	}
	if err := sl.Keystream([][]byte{make([]byte, 9), make([]byte, 9)}); err == nil {
		t.Error("length not multiple of 8 accepted")
	}
}

func TestDistinctIVsDistinctStreams(t *testing.T) {
	key := make([]byte, KeySize)
	a, _ := NewRef(key, []byte{0, 0, 0, 0, 0, 0, 0, 1})
	b, _ := NewRef(key, []byte{0, 0, 0, 0, 0, 0, 0, 2})
	ka := make([]byte, 64)
	kb := make([]byte, 64)
	a.Keystream(ka)
	b.Keystream(kb)
	if bytes.Equal(ka, kb) {
		t.Fatal("different IVs produced identical keystreams")
	}
}

func TestDeterministicReproduction(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	key, iv := randKeyIV(rng)
	a, _ := NewRef(key, iv)
	b, _ := NewRef(key, iv)
	ka := make([]byte, 96)
	kb := make([]byte, 96)
	a.Keystream(ka)
	b.Keystream(kb)
	if !bytes.Equal(ka, kb) {
		t.Fatal("same key/IV did not reproduce the stream")
	}
}

func TestKeystreamBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	key, iv := randKeyIV(rng)
	g, _ := NewRef(key, iv)
	const n = 1 << 15
	ones := 0
	for i := 0; i < n; i++ {
		ones += int(g.KeystreamBit())
	}
	mean, sigma := float64(n)/2, 90.5
	if d := float64(ones) - mean; d > 5*sigma || d < -5*sigma {
		t.Fatalf("keystream bias: %d ones out of %d", ones, n)
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

// clockBlock is what keystreamBlock must equal: 64 ClockVec calls, clock
// i's plane moved bit by bit into bit i^7 of every lane's word (bytes
// MSB-first), with no transpose kernel involved.
func clockBlock(g *Sliced) (out [64]uint64) {
	for i := 0; i < 64; i++ {
		z := g.ClockVec()
		for l := range out {
			out[l] |= (z >> uint(l) & 1) << uint(i^7)
		}
	}
	return out
}

// The block kernel rebases a window that ClockVec calls left at any
// origin, and leaves the engine in step with one that only clocks.
func TestKeystreamBlockMatchesClockVec(t *testing.T) {
	keys, ivs := diffMaterial(rand.New(rand.NewSource(71)), 64)
	for k := 0; k < 64; k++ {
		got, err := NewSlicedVec[bitslice.V64](keys, ivs)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewSlicedVec[bitslice.V64](keys, ivs)
		for i := 0; i < k; i++ {
			got.ClockVec()
			want.ClockVec()
		}
		for blk := 0; blk < 2; blk++ {
			var out [64]uint64
			got.keystreamBlock(&out)
			if out != clockBlock(want) {
				t.Fatalf("after %d ClockVec calls, block %d differs from 64 ClockVec calls", k, blk)
			}
		}
		if got.ClockVec() != want.ClockVec() {
			t.Fatalf("after %d ClockVec calls and two blocks, the engines are out of step", k)
		}
	}
}

func TestKeystreamBlockVecAfterReseed(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	keys, ivs := diffMaterial(rng, 64)
	got, err := NewSlicedVec[bitslice.V64](keys, ivs)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewSlicedVec[bitslice.V64](keys, ivs)
	got.ClockVec() // leave the old window off origin 0
	keys, ivs = diffMaterial(rng, 64)
	if err := got.Reseed(keys, ivs); err != nil {
		t.Fatal(err)
	}
	if err := want.Reseed(keys, ivs); err != nil {
		t.Fatal(err)
	}
	// Grain's 160 init clocks end mid-window: the block must rebase first.
	if got.pos != initClocks%window {
		t.Fatalf("Reseed left pos %d, want %d", got.pos, initClocks%window)
	}
	var out [64]bitslice.V64
	got.KeystreamBlockVec(&out)
	for l, w := range clockBlock(want) {
		if out[l][0] != w {
			t.Fatalf("lane %d: block after Reseed differs from 64 ClockVec calls", l)
		}
	}
}
