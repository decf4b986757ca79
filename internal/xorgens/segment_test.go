package xorgens

import (
	"bytes"
	"testing"
)

// Segment writes Ref's bytes at every length, tails included, and
// allocates nothing.
func TestSegmentMatchesRef(t *testing.T) {
	for fill := byte(0); fill < 8; fill++ {
		key, iv := testMaterial(fill)
		for _, n := range []int{0, 1, 7, 8, 9, 511, 512, 2047, 2048} {
			ref, err := NewRef(key, iv)
			if err != nil {
				t.Fatal(err)
			}
			want, got := make([]byte, n), make([]byte, n)
			ref.Keystream(want)
			Segment(key, iv, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("fill %d, n=%d: Segment diverges from Ref", fill, n)
			}
		}
	}
	key, iv := testMaterial(1)
	dst := make([]byte, 2048)
	if avg := testing.AllocsPerRun(10, func() { Segment(key, iv, dst) }); avg != 0 {
		t.Fatalf("Segment allocates %.1f times, want 0", avg)
	}
}

func BenchmarkSegment(b *testing.B) {
	key, iv := testMaterial(3)
	dst := make([]byte, 2048)
	b.SetBytes(int64(len(dst)))
	for b.Loop() {
		Segment(key, iv, dst)
	}
}
