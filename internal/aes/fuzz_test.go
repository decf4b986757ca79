package aes

import (
	"bytes"
	"testing"

	"repro/internal/bitslice"
)

// FuzzSlicedMatchesRef drives the 64-lane sliced CTR generator and the
// scalar CTR reference from identical fuzz-chosen material: per-lane
// keys and nonces derived from the key and nonce seeds, 1 to 8 blocks.
// Every one of the 64 lanes' keystreams must equal the reference's.
func FuzzSlicedMatchesRef(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte("nonce-01"), uint8(2))
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 16), bytes.Repeat([]byte{0xFF}, 8), uint8(7))
	f.Fuzz(func(t *testing.T, keySeed, nonceSeed []byte, blocks uint8) {
		n := (int(blocks%8) + 1) * BlockSize
		keys := make([][]byte, bitslice.W)
		nonces := make([][]byte, bitslice.W)
		for l := range keys {
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
		bufs := make([][]byte, bitslice.W)
		for l := range bufs {
			bufs[l] = make([]byte, n)
		}
		if err := g.Keystream(bufs); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, n)
		for l := range bufs {
			ref, err := NewCTR(keys[l], nonces[l])
			if err != nil {
				t.Fatal(err)
			}
			ref.Read(want)
			if !bytes.Equal(bufs[l], want) {
				t.Fatalf("lane %d keystream diverges from scalar CTR\n got %x\nwant %x", l, bufs[l], want)
			}
		}
	})
}
