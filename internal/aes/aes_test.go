package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitslice"
)

// FIPS-197 Appendix C known-answer vectors.
func TestFIPS197Vectors(t *testing.T) {
	pt, _ := hex.DecodeString("00112233445566778899aabbccddeeff")
	cases := []struct{ key, ct string }{
		{"000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"},
		{"000102030405060708090a0b0c0d0e0f1011121314151617", "dda97ca4864cdfe06eaf70a0ec0d7191"},
		{"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f", "8ea2b7ca516745bfeafc49904b496089"},
	}
	for _, tc := range cases {
		key, _ := hex.DecodeString(tc.key)
		want, _ := hex.DecodeString(tc.ct)
		c, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 16)
		c.Encrypt(got, pt)
		if !bytes.Equal(got, want) {
			t.Errorf("key %s: got %x want %x", tc.key, got, want)
		}
	}
}

func TestMatchesStdlibAllKeySizes(t *testing.T) {
	f := func(seed int64, size8 uint8) bool {
		sizes := []int{16, 24, 32}
		size := sizes[int(size8)%3]
		rng := rand.New(rand.NewSource(seed))
		key := make([]byte, size)
		pt := make([]byte, 16)
		rng.Read(key)
		rng.Read(pt)
		ours, err := NewCipher(key)
		if err != nil {
			return false
		}
		std, err := stdaes.NewCipher(key)
		if err != nil {
			return false
		}
		a := make([]byte, 16)
		b := make([]byte, 16)
		ours.Encrypt(a, pt)
		std.Encrypt(b, pt)
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNewCipherRejectsBadKey(t *testing.T) {
	for _, n := range []int{0, 15, 17, 33} {
		if _, err := NewCipher(make([]byte, n)); err == nil {
			t.Errorf("key size %d accepted", n)
		}
	}
}

func TestSboxGeneration(t *testing.T) {
	// Spot values from FIPS-197 Figure 7.
	want := map[byte]byte{0x00: 0x63, 0x01: 0x7c, 0x53: 0xed, 0xff: 0x16, 0xc9: 0xdd}
	for in, out := range want {
		if sbox[in] != out {
			t.Errorf("sbox[%#x] = %#x, want %#x", in, sbox[in], out)
		}
	}
	// S-box must be a permutation.
	var seen [256]bool
	for _, v := range sbox {
		if seen[v] {
			t.Fatal("sbox is not a permutation")
		}
		seen[v] = true
	}
}

func TestGFInverse(t *testing.T) {
	for x := 1; x < 256; x++ {
		if mulGF(byte(x), invGF(byte(x))) != 1 {
			t.Fatalf("invGF(%#x) wrong", x)
		}
	}
	if invGF(0) != 0 {
		t.Fatal("invGF(0) must be 0")
	}
}

// The bitsliced cipher must agree with 64 scalar encryptions under 64
// distinct keys.
func TestSlicedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	keys := make([][]byte, 64)
	var blocks [64][16]byte
	for l := range keys {
		keys[l] = make([]byte, 16)
		rng.Read(keys[l])
		rng.Read(blocks[l][:])
	}
	sl, err := NewSliced(keys)
	if err != nil {
		t.Fatal(err)
	}
	st := packBlocks(&blocks)
	sl.EncryptBlocks(&st)
	out := unpackBlocks(&st)
	for l := 0; l < 64; l++ {
		c, _ := NewCipher(keys[l])
		want := make([]byte, 16)
		c.Encrypt(want, blocks[l][:])
		if !bytes.Equal(out[l][:], want) {
			t.Fatalf("lane %d: sliced %x scalar %x", l, out[l], want)
		}
	}
}

// A bank of 64 lanes refuses keys for a partial one, and the refused
// Reseed leaves every lane's round keys where they were.
func TestSlicedPartialLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	keys := make([][]byte, 64)
	var blocks [64][16]byte
	for l := range keys {
		keys[l] = make([]byte, 16)
		rng.Read(keys[l])
		rng.Read(blocks[l][:])
	}
	sl, err := NewSliced(keys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSliced(keys[:3]); err == nil {
		t.Error("3 lanes accepted")
	}
	if err := sl.Reseed(keys[:3]); err == nil {
		t.Error("Reseed accepted 3 lanes")
	}
	st := packBlocks(&blocks)
	sl.EncryptBlocks(&st)
	out := unpackBlocks(&st)
	for l := range keys {
		c, _ := NewCipher(keys[l])
		want := make([]byte, 16)
		c.Encrypt(want, blocks[l][:])
		if !bytes.Equal(out[l][:], want) {
			t.Fatalf("lane %d diverges from the scalar cipher after a refused Reseed", l)
		}
	}
}

func TestSlicedValidation(t *testing.T) {
	if _, err := NewSliced(nil); err == nil {
		t.Error("zero lanes accepted")
	}
	keys := make([][]byte, 65)
	for l := range keys {
		keys[l] = make([]byte, 16)
	}
	if _, err := NewSliced(keys); err == nil {
		t.Error("65 lanes accepted")
	}
	keys = keys[:64]
	keys[3] = make([]byte, 15)
	if _, err := NewSliced(keys); err == nil || err.Error() != "aes: lane 3: key must be 16 bytes" {
		t.Errorf("short lane-3 key: err = %v, want %q", err, "aes: lane 3: key must be 16 bytes")
	}
}

// Scalar CTR: Read must be chunking-invariant and match block-by-block
// encryption of nonce‖counter.
func TestCTRMatchesManualBlocks(t *testing.T) {
	key := make([]byte, 16)
	nonce := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for i := range key {
		key[i] = byte(i)
	}
	g, err := NewCTR(key, nonce)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 48)
	g.Read(got)
	c, _ := NewCipher(key)
	want := make([]byte, 48)
	for blk := 0; blk < 3; blk++ {
		in := make([]byte, 16)
		copy(in, nonce)
		in[15] = byte(blk)
		c.Encrypt(want[16*blk:], in)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ctr stream mismatch\n got %x\nwant %x", got, want)
	}
}

func TestCTRChunkingInvariance(t *testing.T) {
	key := make([]byte, 16)
	nonce := make([]byte, 8)
	a, _ := NewCTR(key, nonce)
	b, _ := NewCTR(key, nonce)
	whole := make([]byte, 100)
	a.Read(whole)
	pieces := make([]byte, 100)
	step := 1
	for off := 0; off < 100; {
		n := step
		if off+n > 100 {
			n = 100 - off
		}
		b.Read(pieces[off : off+n])
		off += n
		step = step*2 + 1
	}
	if !bytes.Equal(whole, pieces) {
		t.Fatal("CTR output depends on read chunking")
	}
}

func TestCTRValidation(t *testing.T) {
	if _, err := NewCTR(make([]byte, 15), make([]byte, 8)); err == nil {
		t.Error("bad key accepted")
	}
	if _, err := NewCTR(make([]byte, 16), make([]byte, 7)); err == nil {
		t.Error("bad nonce accepted")
	}
}

// The bitsliced CTR generator must reproduce 64 scalar CTR streams.
func TestSlicedCTRMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	keys := make([][]byte, 64)
	nonces := make([][]byte, 64)
	for l := range keys {
		keys[l] = make([]byte, 16)
		nonces[l] = make([]byte, 8)
		rng.Read(keys[l])
		rng.Read(nonces[l])
	}
	g, err := NewSlicedCTRVec[bitslice.V64](keys, nonces)
	if err != nil {
		t.Fatal(err)
	}
	const batches = 3
	got := make([]byte, batches*BatchSize)
	for i := 0; i < batches; i++ {
		g.NextBatch(got[i*BatchSize:])
	}
	for l := 0; l < 64; l++ {
		ref, _ := NewCTR(keys[l], nonces[l])
		want := make([]byte, batches*16)
		ref.Read(want)
		for i := 0; i < batches; i++ {
			gotBlk := got[i*BatchSize+16*l : i*BatchSize+16*l+16]
			if !bytes.Equal(gotBlk, want[16*i:16*i+16]) {
				t.Fatalf("lane %d batch %d mismatch", l, i)
			}
		}
	}
}

func TestSlicedCTRValidation(t *testing.T) {
	keys, nonces := make([][]byte, 64), make([][]byte, 64)
	for l := range keys {
		keys[l], nonces[l] = make([]byte, 16), make([]byte, 8)
	}
	if _, err := NewSlicedCTRVec[bitslice.V64](keys, nil); err == nil {
		t.Error("nonce count mismatch accepted")
	}
	nonces[0] = make([]byte, 7)
	if _, err := NewSlicedCTRVec[bitslice.V64](keys, nonces); err == nil {
		t.Error("bad nonce accepted")
	}
}

// packBlocks converts one 16-byte block per lane into plane form.
func packBlocks(blocks *[64][16]byte) [128]uint64 {
	var los, his [64]uint64
	for l := range blocks {
		los[l] = binary.LittleEndian.Uint64(blocks[l][0:8])
		his[l] = binary.LittleEndian.Uint64(blocks[l][8:16])
	}
	var st [128]uint64
	*(*[64]uint64)(st[0:64]) = bitslice.PackWords(&los)
	*(*[64]uint64)(st[64:128]) = bitslice.PackWords(&his)
	return st
}

// unpackBlocks converts plane form back to one block per lane.
func unpackBlocks(st *[128]uint64) (out [64][16]byte) {
	lo := bitslice.UnpackWords((*[64]uint64)(st[0:64]), 64)
	hi := bitslice.UnpackWords((*[64]uint64)(st[64:128]), 64)
	for l := range out {
		binary.LittleEndian.PutUint64(out[l][0:8], lo[l])
		binary.LittleEndian.PutUint64(out[l][8:16], hi[l])
	}
	return out
}

func TestPackUnpackBlocksRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var blocks [64][16]byte
	for l := range blocks {
		rng.Read(blocks[l][:])
	}
	st := packBlocks(&blocks)
	if back := unpackBlocks(&st); back != blocks {
		t.Fatal("round trip failed")
	}
}

func BenchmarkScalarEncrypt(b *testing.B) {
	key := make([]byte, 16)
	c, _ := NewCipher(key)
	buf := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(buf, buf)
	}
}

func BenchmarkSlicedEncrypt64Lanes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, 64)
	for l := range keys {
		keys[l] = make([]byte, 16)
		rng.Read(keys[l])
	}
	sl, _ := NewSliced(keys)
	var st [128]uint64
	b.SetBytes(64 * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sl.EncryptBlocks(&st)
	}
}

func BenchmarkSlicedCTR(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, 64)
	nonces := make([][]byte, 64)
	for l := range keys {
		keys[l] = make([]byte, 16)
		nonces[l] = make([]byte, 8)
		rng.Read(keys[l])
		rng.Read(nonces[l])
	}
	g, _ := NewSlicedCTRVec[bitslice.V64](keys, nonces)
	dst := make([]byte, BatchSize)
	b.SetBytes(BatchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NextBatch(dst)
	}
}
