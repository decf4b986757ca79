package grain

import (
	"bytes"
	"math/rand"
	"testing"
)

// Segment writes Ref's bytes at every length, odd tails and partial
// word steps included, and allocates nothing.
func TestSegmentMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		key, iv := randKeyIV(rng)
		for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 511, 2047, 2048} {
			ref, err := NewRef(key, iv)
			if err != nil {
				t.Fatal(err)
			}
			want, got := make([]byte, n), make([]byte, n)
			ref.Keystream(want)
			Segment(key, iv, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d, n=%d: Segment diverges from Ref", trial, n)
			}
		}
	}
	key, iv := randKeyIV(rng)
	dst := make([]byte, 2048)
	if avg := testing.AllocsPerRun(10, func() { Segment(key, iv, dst) }); avg != 0 {
		t.Fatalf("Segment allocates %.1f times, want 0", avg)
	}
}

func BenchmarkSegment(b *testing.B) {
	key, iv := randKeyIV(rand.New(rand.NewSource(1)))
	dst := make([]byte, 2048)
	b.SetBytes(int64(len(dst)))
	for b.Loop() {
		Segment(key, iv, dst)
	}
}
