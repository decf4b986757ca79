package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/rand"
	"testing"
)

// segmentLens covers empty output, partial first and last blocks, the
// four-block kernel's tail lengths and a whole core segment.
var segmentLens = []int{0, 1, 15, 16, 17, 48, 63, 64, 65, 80, 100, 2047, 2048}

// Segment writes NewCTR's bytes, which are also stdlib crypto/aes under
// cipher.NewCTR with the IV nonce‖0: the counters stay below 2^64, so
// the stdlib's 128-bit increment and the 64-bit counter agree. Both
// block kernels are held to it: the AES-NI one where the CPU has it,
// and the scalar fallback everywhere.
func TestSegmentMatchesRef(t *testing.T) {
	t.Logf("HasAESNI = %v", HasAESNI)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		key, nonce := make([]byte, 16), make([]byte, 8)
		rng.Read(key)
		rng.Read(nonce)
		for _, n := range segmentLens {
			ref, err := NewCTR(key, nonce)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, n)
			ref.Read(want)

			std, err := stdaes.NewCipher(key)
			if err != nil {
				t.Fatal(err)
			}
			iv := append(append([]byte{}, nonce...), make([]byte, 8)...)
			stdOut := make([]byte, n)
			cipher.NewCTR(std, iv).XORKeyStream(stdOut, stdOut)
			if !bytes.Equal(stdOut, want) {
				t.Fatalf("n=%d: NewCTR diverges from crypto/aes CTR", n)
			}

			got := make([]byte, n)
			Segment(key, nonce, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d: Segment diverges from NewCTR", n)
			}

			var rk [11][16]byte
			expandKey128(key, &rk)
			whole := n &^ (BlockSize - 1)
			nw := binary.LittleEndian.Uint64(nonce)
			generic := make([]byte, whole)
			ctrBlocksGeneric(&rk, nw, 0, generic)
			if !bytes.Equal(generic, want[:whole]) {
				t.Fatalf("n=%d: scalar block kernel diverges from NewCTR", n)
			}
			if HasAESNI && whole > 0 {
				hw := make([]byte, whole)
				ctrBlocksAESNI(&rk, nw, 0, &hw[0], whole/BlockSize)
				if !bytes.Equal(hw, want[:whole]) {
					t.Fatalf("n=%d: AES-NI block kernel diverges from NewCTR", n)
				}
			}
		}
	}
}

// The counter block's big-endian low half carries across bytes: a
// kernel run that starts just below a byte boundary of the counter
// matches the scalar kernel.
func TestSegmentCounterCarry(t *testing.T) {
	if !HasAESNI {
		t.Skip("no AES-NI")
	}
	var rk [11][16]byte
	expandKey128(bytes.Repeat([]byte{7}, 16), &rk)
	for _, ctr := range []uint64{0xFE, 0xFFFE, 1<<32 - 3, 1<<64 - 3} {
		want, got := make([]byte, 7*BlockSize), make([]byte, 7*BlockSize)
		ctrBlocksGeneric(&rk, 0x1122334455667788, ctr, want)
		ctrBlocksAESNI(&rk, 0x1122334455667788, ctr, &got[0], 7)
		if !bytes.Equal(got, want) {
			t.Errorf("ctr %#x: AES-NI kernel diverges from the scalar kernel", ctr)
		}
	}
}

// Segment and the scalar block kernel allocate nothing.
func TestSegmentAllocs(t *testing.T) {
	key, nonce, dst := make([]byte, 16), make([]byte, 8), make([]byte, 2047)
	if avg := testing.AllocsPerRun(10, func() { Segment(key, nonce, dst) }); avg != 0 {
		t.Fatalf("Segment allocates %.1f times, want 0", avg)
	}
	var rk [11][16]byte
	if avg := testing.AllocsPerRun(10, func() { ctrBlocksGeneric(&rk, 1, 2, dst[:2032]) }); avg != 0 {
		t.Fatalf("the scalar block kernel allocates %.1f times, want 0", avg)
	}
}

func BenchmarkSegment(b *testing.B) {
	key, nonce, dst := make([]byte, 16), make([]byte, 8), make([]byte, 2048)
	b.SetBytes(int64(len(dst)))
	for b.Loop() {
		Segment(key, nonce, dst)
	}
}

// BenchmarkSegmentGeneric times Segment's 2 KiB segment on the scalar
// cipher, the one-lane path of a CPU without AES-NI: key expansion and
// 128 counter blocks through ctrBlocksGeneric.
func BenchmarkSegmentGeneric(b *testing.B) {
	key, nonce, dst := make([]byte, 16), make([]byte, 8), make([]byte, 2048)
	b.SetBytes(int64(len(dst)))
	for b.Loop() {
		var rk [11][16]byte
		expandKey128(key, &rk)
		ctrBlocksGeneric(&rk, binary.LittleEndian.Uint64(nonce), 0, dst)
	}
}
