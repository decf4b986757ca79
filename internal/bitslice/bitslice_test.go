package bitslice

import (
	"math/rand"
	"testing"
)

func TestTranspose64Identity(t *testing.T) {
	// Transposing twice must restore the original matrix.
	rng := rand.New(rand.NewSource(1))
	var a, orig [64]uint64
	for i := range a {
		a[i] = rng.Uint64()
	}
	orig = a
	Transpose64(&a)
	Transpose64(&a)
	if a != orig {
		t.Fatal("double transpose did not restore matrix")
	}
}

func TestTranspose64Definition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b [64]uint64
	for i := range a {
		a[i] = rng.Uint64()
	}
	b = a
	Transpose64(&b)
	for k := 0; k < 64; k++ {
		for j := 0; j < 64; j++ {
			got := (b[k] >> uint(j)) & 1
			want := (a[j] >> uint(k)) & 1
			if got != want {
				t.Fatalf("bit (%d,%d): got %d want %d", k, j, got, want)
			}
		}
	}
}

func TestTranspose64Diagonal(t *testing.T) {
	// The identity matrix is its own transpose.
	var a [64]uint64
	for i := range a {
		a[i] = 1 << uint(i)
	}
	orig := a
	Transpose64(&a)
	if a != orig {
		t.Fatal("identity matrix changed under transposition")
	}
}

func TestSetGetLaneBit(t *testing.T) {
	planes := make([]uint64, 4)
	SetLaneBit(planes, 2, 17, 1)
	if LaneBit(planes, 2, 17) != 1 {
		t.Fatal("bit not set")
	}
	if planes[2] != 1<<17 {
		t.Fatalf("plane 2 = %x", planes[2])
	}
	SetLaneBit(planes, 2, 17, 0)
	if LaneBit(planes, 2, 17) != 0 || planes[2] != 0 {
		t.Fatal("bit not cleared")
	}
}

func TestPackWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var vals [64]uint64
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	back := PackWords(&vals)
	Transpose64(&back)
	for i := range vals {
		if vals[i] != back[i] {
			t.Fatalf("lane %d: %x != %x", i, back[i], vals[i])
		}
	}
}

func TestPackWordsLayout(t *testing.T) {
	// lane 5 holds value with bit 9 set: plane 9 must have bit 5 set.
	var vals [64]uint64
	vals[5] = 1 << 9
	planes := PackWords(&vals)
	for i := range planes {
		want := uint64(0)
		if i == 9 {
			want = 1 << 5
		}
		if planes[i] != want {
			t.Fatalf("plane %d = %x, want %x", i, planes[i], want)
		}
	}
}

// BenchmarkTranspose64 times the dispatching Transpose64 and each kernel
// this machine runs.
func BenchmarkTranspose64(b *testing.B) {
	var a [64]uint64
	for i := range a {
		a[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for _, k := range append([]kernel{{"dispatch", Transpose64}}, transpose64Kernels(b)...) {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(64 * 8)
			for i := 0; i < b.N; i++ {
				k.fn(&a)
			}
		})
	}
}
