package grain

import (
	"bytes"
	"encoding/binary"
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

// A bank of 64 lanes refuses material for a partial one, and the refused
// Reseed leaves every lane's keystream where it was.
func TestSlicedPartialLanes(t *testing.T) {
	keys, ivs := diffMaterial(rand.New(rand.NewSource(22)), 64)
	sl, err := NewSlicedVec[bitslice.V64](keys, ivs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSlicedVec[bitslice.V64](keys[:3], ivs[:3]); err == nil {
		t.Error("3 lanes accepted")
	}
	if err := sl.Reseed(keys[:3], ivs[:3]); err == nil {
		t.Error("Reseed accepted 3 lanes")
	}
	bufs := laneBufs(16)
	if err := sl.Keystream(bufs); err != nil {
		t.Fatal(err)
	}
	for l := range keys {
		if want := refKeystream(t, keys[l], ivs[l], 16); !bytes.Equal(bufs[l], want) {
			t.Fatalf("lane %d diverges from Ref after a refused Reseed", l)
		}
	}
}

// Keystream calls of uneven lengths cross many block rebases and each
// pick up where the last one stopped.
func TestSlicedWindowRebaseSeamless(t *testing.T) {
	keys, ivs := diffMaterial(rand.New(rand.NewSource(23)), 64)
	sl, _ := NewSlicedVec[bitslice.V64](keys, ivs)
	got := laneBufs(128) // 1024 clocks: 16 rebases
	off := 0
	for _, n := range []int{8, 24, 16, 80} {
		part := make([][]byte, 64)
		for l := range part {
			part[l] = got[l][off : off+n]
		}
		if err := sl.Keystream(part); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	for l := range keys {
		if want := refKeystream(t, keys[l], ivs[l], 128); !bytes.Equal(got[l], want) {
			t.Fatalf("lane %d diverges from Ref across rebases", l)
		}
	}
}

func TestSlicedValidation(t *testing.T) {
	if _, err := NewSlicedVec[bitslice.V64](nil, nil); err == nil {
		t.Error("zero lanes accepted")
	}
	keys, ivs := diffMaterial(rand.New(rand.NewSource(66)), 65)
	if _, err := NewSlicedVec[bitslice.V64](keys, ivs); err == nil {
		t.Error("65 lanes accepted")
	}
	if _, err := NewSlicedVec[bitslice.V64](keys[:64], ivs[:63]); err == nil {
		t.Error("count mismatch accepted")
	}
	short := append([][]byte{}, keys[:64]...)
	short[3] = make([]byte, KeySize-1)
	if _, err := NewSlicedVec[bitslice.V64](short, ivs[:64]); err == nil ||
		err.Error() != "grain: lane 3: key must be 10 bytes" {
		t.Errorf("short lane-3 key: err = %v, want %q", err, "grain: lane 3: key must be 10 bytes")
	}
	shortIV := append([][]byte{}, ivs[:64]...)
	shortIV[0] = make([]byte, IVSize-1)
	if _, err := NewSlicedVec[bitslice.V64](keys[:64], shortIV); err == nil {
		t.Error("short iv accepted")
	}
	sl, _ := NewSlicedVec[bitslice.V64](keys[:64], ivs[:64])
	if err := sl.Keystream(laneBufs(8)[:1]); err == nil {
		t.Error("wrong buffer count accepted")
	}
	ragged := laneBufs(8)
	ragged[1] = make([]byte, 16)
	if err := sl.Keystream(ragged); err == nil {
		t.Error("ragged buffers accepted")
	}
	if err := sl.Keystream(laneBufs(9)); err == nil {
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
	keys, ivs := diffMaterial(rand.New(rand.NewSource(1)), 64)
	g, _ := NewSlicedVec[bitslice.V64](keys, ivs)
	var out [64]uint64
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range 8 {
			g.keystreamBlock(&out)
		}
	}
}

// laneBufs returns 64 zero buffers of n bytes.
func laneBufs(n int) [][]byte {
	bufs := make([][]byte, 64)
	for l := range bufs {
		bufs[l] = make([]byte, n)
	}
	return bufs
}

// refKeystream is Ref's first n keystream bytes under (key, iv).
func refKeystream(t *testing.T, key, iv []byte, n int) []byte {
	t.Helper()
	ref, err := NewRef(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n)
	ref.Keystream(out)
	return out
}

// checkBlocks holds the block words out, block k of a run (out[L]
// little-endian is lane L's 8 bytes), to each lane's Ref keystream.
func checkBlocks(t *testing.T, out *[64]uint64, want [][]byte, k int) {
	t.Helper()
	for l, w := range out {
		if got := binary.LittleEndian.AppendUint64(nil, w); !bytes.Equal(got, want[l][8*k:8*k+8]) {
			t.Fatalf("block %d, lane %d: %x, want Ref's %x", k, l, got, want[l][8*k:8*k+8])
		}
	}
}

// The block kernel, run k blocks in a row straight after Rekey, emits
// every lane's Ref keystream block by block.
func TestKeystreamBlockMatchesRef(t *testing.T) {
	keys, ivs := diffMaterial(rand.New(rand.NewSource(71)), 64)
	const k = 20
	want := make([][]byte, 64)
	for l := range want {
		want[l] = refKeystream(t, keys[l], ivs[l], 8*k)
	}
	g, err := NewSlicedVec[bitslice.V64](keys, ivs)
	if err != nil {
		t.Fatal(err)
	}
	for blk := range k {
		var out [64]uint64
		g.keystreamBlock(&out)
		checkBlocks(t, &out, want, blk)
	}
}

// A block after a Reseed that follows earlier output is the new
// material's first Ref block.
func TestKeystreamBlockVecAfterReseed(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	keys, ivs := diffMaterial(rng, 64)
	g, err := NewSlicedVec[bitslice.V64](keys, ivs)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Keystream(laneBufs(24)); err != nil {
		t.Fatal(err)
	}
	keys, ivs = diffMaterial(rng, 64)
	if err := g.Reseed(keys, ivs); err != nil {
		t.Fatal(err)
	}
	var vec [64]bitslice.V64
	g.KeystreamBlockVec(&vec)
	var out [64]uint64
	want := make([][]byte, 64)
	for l := range out {
		out[l] = vec[l][0]
		want[l] = refKeystream(t, keys[l], ivs[l], 8)
	}
	checkBlocks(t, &out, want, 0)
}
