package aes

import (
	"bytes"
	"testing"

	"repro/internal/bitslice"
)

// FuzzSlicedMatchesRef drives the 64-lane sliced CTR generator and the
// scalar CTR reference from identical fuzz-chosen material: per-lane
// keys and nonces derived from the key and nonce seeds, 1 to 64 lanes,
// 1 to 8 blocks. Every lane's keystream must equal the reference's.
func FuzzSlicedMatchesRef(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte("nonce-01"), uint8(63), uint8(2))
	f.Add([]byte{}, []byte{}, uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 16), bytes.Repeat([]byte{0xFF}, 8), uint8(36), uint8(7))
	f.Fuzz(func(t *testing.T, keySeed, nonceSeed []byte, lanesRaw, blocks uint8) {
		lanes := int(lanesRaw)%bitslice.W + 1
		n := (int(blocks%8) + 1) * BlockSize
		keys := make([][]byte, lanes)
		nonces := make([][]byte, lanes)
		for l := 0; l < lanes; l++ {
			keys[l] = make([]byte, 16)
			nonces[l] = make([]byte, 8)
			for i := range keys[l] {
				keys[l][i] = byte(l) * 0x3B
				if i < len(keySeed) {
					keys[l][i] ^= keySeed[i]
				}
			}
			for i := range nonces[l] {
				nonces[l][i] = byte(l>>1) ^ 0x5C
				if i < len(nonceSeed) {
					nonces[l][i] ^= nonceSeed[i]
				}
			}
		}
		g, err := NewSlicedCTRVec[bitslice.V64](keys, nonces)
		if err != nil {
			t.Fatal(err)
		}
		bufs := make([][]byte, lanes)
		for l := range bufs {
			bufs[l] = make([]byte, n)
		}
		if err := g.Keystream(bufs); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, n)
		for l := 0; l < lanes; l++ {
			ref, err := NewCTR(keys[l], nonces[l])
			if err != nil {
				t.Fatal(err)
			}
			ref.Read(want)
			if !bytes.Equal(bufs[l], want) {
				t.Fatalf("lane %d/%d keystream diverges from scalar CTR\n got %x\nwant %x", l, lanes, bufs[l], want)
			}
		}
	})
}
