package mickey

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitslice"
)

// The packed mask tables and the spec tap list must describe the same
// register R.
func TestRMaskMatchesTapList(t *testing.T) {
	var want [4]uint32
	for _, tap := range rtaps {
		want[tap>>5] |= 1 << uint(tap&31)
	}
	if want != rMask {
		t.Fatalf("packed R mask %x does not reconstruct RTAPS %x", rMask, want)
	}
}

func TestMaskTablesWellFormed(t *testing.T) {
	// All masks describe 100-bit registers: no bits above 99.
	for name, m := range map[string][4]uint32{
		"rMask": rMask, "comp0": comp0, "comp1": comp1,
		"sMask0": sMask0, "sMask1": sMask1,
	} {
		if m[3]&^0xF != 0 {
			t.Errorf("%s has bits above position 99", name)
		}
	}
	// COMP tables are only defined for i = 1..98.
	if maskBit(&comp0, 0) != 0 || maskBit(&comp0, 99) != 0 {
		t.Error("comp0 has bits outside 1..98")
	}
	if maskBit(&comp1, 0) != 0 || maskBit(&comp1, 99) != 0 {
		t.Error("comp1 has bits outside 1..98")
	}
}

func testKey(seed int64) ([]byte, []byte) {
	rng := rand.New(rand.NewSource(seed))
	key := make([]byte, KeySize)
	iv := make([]byte, 10)
	rng.Read(key)
	rng.Read(iv)
	return key, iv
}

// The packed implementation must agree with the specification reference
// for arbitrary keys and IV lengths.
func TestPackedMatchesRef(t *testing.T) {
	f := func(seed int64, ivLen8 uint8) bool {
		key, iv := testKey(seed)
		ivBits := int(ivLen8) % (MaxIVBits + 1)
		ref, err := NewRef(key, iv, ivBits)
		if err != nil {
			return false
		}
		pk, err := NewPacked(key, iv, ivBits)
		if err != nil {
			return false
		}
		a := make([]byte, 32)
		b := make([]byte, 32)
		ref.Keystream(a)
		pk.Keystream(b)
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The bitsliced engine must agree with 64 independent reference instances
// holding 64 distinct keys and IVs.
func TestSlicedMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const lanes = 64
	keys := make([][]byte, lanes)
	ivs := make([][]byte, lanes)
	for l := 0; l < lanes; l++ {
		keys[l] = make([]byte, KeySize)
		ivs[l] = make([]byte, 10)
		rng.Read(keys[l])
		rng.Read(ivs[l])
	}
	sl, err := NewSlicedVec[bitslice.V64](keys, ivs, 80)
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, lanes)
	for l := range bufs {
		bufs[l] = make([]byte, 40)
	}
	if err := sl.Keystream(bufs); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < lanes; l++ {
		ref, err := NewRef(keys[l], ivs[l], 80)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 40)
		ref.Keystream(want)
		if !bytes.Equal(bufs[l], want) {
			t.Fatalf("lane %d keystream mismatch\n got %x\nwant %x", l, bufs[l], want)
		}
	}
}

func TestSlicedPartialLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const lanes = 7
	keys := make([][]byte, lanes)
	ivs := make([][]byte, lanes)
	for l := 0; l < lanes; l++ {
		keys[l] = make([]byte, KeySize)
		ivs[l] = make([]byte, 4)
		rng.Read(keys[l])
		rng.Read(ivs[l])
	}
	sl, err := NewSlicedVec[bitslice.V64](keys, ivs, 32)
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, lanes)
	for l := range bufs {
		bufs[l] = make([]byte, 16)
	}
	if err := sl.Keystream(bufs); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < lanes; l++ {
		ref, _ := NewRef(keys[l], ivs[l], 32)
		want := make([]byte, 16)
		ref.Keystream(want)
		if !bytes.Equal(bufs[l], want) {
			t.Fatalf("lane %d mismatch", l)
		}
	}
}

// Distinct IVs under one key must give distinct keystreams (the spec's
// key/IV separation property, and the engine's lane-decorrelation basis).
func TestDistinctIVsDistinctStreams(t *testing.T) {
	key, _ := testKey(77)
	a, err := NewRef(key, []byte{0, 0, 0, 1}, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRef(key, []byte{0, 0, 0, 2}, 32)
	if err != nil {
		t.Fatal(err)
	}
	ka := make([]byte, 64)
	kb := make([]byte, 64)
	a.Keystream(ka)
	b.Keystream(kb)
	if bytes.Equal(ka, kb) {
		t.Fatal("different IVs produced identical keystreams")
	}
}

// Determinism: the same key/IV must reproduce the same stream (paper §5.4
// relies on this for multi-GPU reconstruction).
func TestDeterministicReproduction(t *testing.T) {
	key, iv := testKey(123)
	a, _ := NewRef(key, iv, 80)
	b, _ := NewRef(key, iv, 80)
	ka := make([]byte, 128)
	kb := make([]byte, 128)
	a.Keystream(ka)
	b.Keystream(kb)
	if !bytes.Equal(ka, kb) {
		t.Fatal("same key/IV did not reproduce the stream")
	}
}

func TestZeroLengthIV(t *testing.T) {
	key, _ := testKey(9)
	ref, err := NewRef(key, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := NewPacked(key, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]byte, 16)
	b := make([]byte, 16)
	ref.Keystream(a)
	pk.Keystream(b)
	if !bytes.Equal(a, b) {
		t.Fatal("zero-IV keystreams differ")
	}
}

func TestConstructorValidation(t *testing.T) {
	key, iv := testKey(1)
	if _, err := NewRef(key[:9], iv, 0); err == nil {
		t.Error("short key accepted")
	}
	if _, err := NewRef(key, iv, 81); err == nil {
		t.Error("iv > 80 bits accepted")
	}
	if _, err := NewRef(key, iv[:1], 32); err == nil {
		t.Error("iv byte slice shorter than ivBits accepted")
	}
	if _, err := NewPacked(key[:1], iv, 0); err == nil {
		t.Error("packed: short key accepted")
	}
	if _, err := NewSlicedVec[bitslice.V64](nil, nil, 0); err == nil {
		t.Error("sliced: zero lanes accepted")
	}
	if _, err := NewSlicedVec[bitslice.V64]([][]byte{key}, [][]byte{iv, iv}, 0); err == nil {
		t.Error("sliced: key/iv count mismatch accepted")
	}
	keys := make([][]byte, 65)
	ivs := make([][]byte, 65)
	for i := range keys {
		keys[i], ivs[i] = key, iv
	}
	if _, err := NewSlicedVec[bitslice.V64](keys, ivs, 0); err == nil {
		t.Error("sliced: 65 lanes accepted")
	}
}

func TestKeystreamBufferValidation(t *testing.T) {
	key, iv := testKey(2)
	sl, err := NewSlicedVec[bitslice.V64]([][]byte{key, key}, [][]byte{iv, iv}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if err := sl.Keystream(make([][]byte, 1)); err == nil {
		t.Error("wrong buffer count accepted")
	}
	if err := sl.Keystream([][]byte{make([]byte, 8), make([]byte, 16)}); err == nil {
		t.Error("ragged buffers accepted")
	}
	if err := sl.Keystream([][]byte{make([]byte, 7), make([]byte, 7)}); err == nil {
		t.Error("non multiple-of-8 length accepted")
	}
}

// The keystream must be balanced to first order — a cheap smoke test that
// the feedback tables are not degenerate.
func TestKeystreamBalance(t *testing.T) {
	key, iv := testKey(1001)
	ref, _ := NewRef(key, iv, 80)
	const n = 1 << 15
	ones := 0
	for i := 0; i < n; i++ {
		ones += int(ref.KeystreamBit())
	}
	// Binomial(n, 1/2): allow ±5 sigma.
	mean, sigma := float64(n)/2, 90.5
	if d := float64(ones) - mean; d > 5*sigma || d < -5*sigma {
		t.Fatalf("keystream bias: %d ones out of %d", ones, n)
	}
}

func BenchmarkRefKeystream(b *testing.B) {
	key, iv := testKey(10)
	m, _ := NewRef(key, iv, 80)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Keystream(buf)
	}
}

func BenchmarkPackedKeystream(b *testing.B) {
	key, iv := testKey(10)
	m, _ := NewPacked(key, iv, 80)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Keystream(buf)
	}
}

func BenchmarkSlicedKeystream64Lanes(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	keys := make([][]byte, 64)
	ivs := make([][]byte, 64)
	for l := range keys {
		keys[l] = make([]byte, KeySize)
		ivs[l] = make([]byte, 10)
		rng.Read(keys[l])
		rng.Read(ivs[l])
	}
	m, _ := NewSlicedVec[bitslice.V64](keys, ivs, 80)
	dst := make([]uint64, 512) // 512*64 bits = 4096 bytes
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] = m.ClockVec()
		}
	}
}

func BenchmarkSlicedKeystreamPerLane(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	keys := make([][]byte, 64)
	ivs := make([][]byte, 64)
	for l := range keys {
		keys[l] = make([]byte, KeySize)
		ivs[l] = make([]byte, 10)
		rng.Read(keys[l])
		rng.Read(ivs[l])
	}
	m, _ := NewSlicedVec[bitslice.V64](keys, ivs, 80)
	bufs := make([][]byte, 64)
	for l := range bufs {
		bufs[l] = make([]byte, 64)
	}
	b.SetBytes(64 * 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Keystream(bufs)
	}
}
