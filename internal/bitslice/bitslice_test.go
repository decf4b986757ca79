package bitslice

import (
	"math/rand"
	"testing"
	"testing/quick"
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

func TestPackUnpackBitsRoundTrip(t *testing.T) {
	f := func(seed int64, lanes8 uint8, n8 uint8) bool {
		lanes := int(lanes8%64) + 1
		n := int(n8%100) + 1
		rng := rand.New(rand.NewSource(seed))
		bits := make([][]uint8, lanes)
		for l := range bits {
			bits[l] = make([]uint8, n)
			for i := range bits[l] {
				bits[l][i] = uint8(rng.Intn(2))
			}
		}
		planes := PackBits(bits)
		back := UnpackBits(planes, lanes)
		for l := range bits {
			for i := range bits[l] {
				if bits[l][i] != back[l][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackBitsPlaneLayout(t *testing.T) {
	// lane 3 has bit pattern 1,0,1; everything else zero.
	bits := make([][]uint8, 5)
	for l := range bits {
		bits[l] = make([]uint8, 3)
	}
	bits[3] = []uint8{1, 0, 1}
	planes := PackBits(bits)
	if planes[0] != 1<<3 || planes[1] != 0 || planes[2] != 1<<3 {
		t.Fatalf("unexpected planes %v", planes)
	}
}

func TestPackBitsPanics(t *testing.T) {
	assertPanics(t, "ragged", func() {
		PackBits([][]uint8{{1, 0}, {1}})
	})
	assertPanics(t, "too many lanes", func() {
		PackBits(make([][]uint8, 65))
	})
	assertPanics(t, "unpack lanes", func() {
		UnpackBits(nil, 65)
	})
}

func TestPackBitsEmpty(t *testing.T) {
	if got := PackBits(nil); got != nil {
		t.Fatalf("PackBits(nil) = %v, want nil", got)
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

func TestBroadcast(t *testing.T) {
	if Broadcast(0) != 0 {
		t.Fatal("Broadcast(0)")
	}
	if Broadcast(1) != ^uint64(0) {
		t.Fatal("Broadcast(1)")
	}
	if Broadcast(3) != ^uint64(0) {
		t.Fatal("Broadcast masks to one bit")
	}
}

func TestPackWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var vals [64]uint64
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	planes := PackWords(&vals)
	back := UnpackWords(&planes, 64)
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

func TestExtractLane(t *testing.T) {
	planes := []uint64{0, 1 << 7, 1 << 7, 0}
	lane := ExtractLane(planes, 7)
	want := []uint8{0, 1, 1, 0}
	for i := range want {
		if lane[i] != want[i] {
			t.Fatalf("lane bit %d = %d", i, lane[i])
		}
	}
}

func TestBytesBitsRoundTrip(t *testing.T) {
	f := func(p []byte) bool {
		bits := BytesToBits(p)
		back := BitsToBytes(bits)
		if len(back) != len(p) {
			return false
		}
		for i := range p {
			if p[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBytesToBitsOrder(t *testing.T) {
	bits := BytesToBits([]byte{0x01, 0x80})
	// LSB-first: first byte contributes 1,0,0,0,0,0,0,0
	if bits[0] != 1 || bits[7] != 0 || bits[8] != 0 || bits[15] != 1 {
		t.Fatalf("unexpected order %v", bits)
	}
}

func TestBitsToBytesPanics(t *testing.T) {
	assertPanics(t, "length", func() { BitsToBytes(make([]uint8, 7)) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
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
