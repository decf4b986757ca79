package bitslice

import (
	"fmt"
	"math/rand"
	"testing"
)

// runWidths runs a check of the 64-lane helpers at every public lane
// width. The helpers work on 64-lane planes, so the width-N subtest runs
// the check on N/64 consecutive blocks, each with its own random data —
// the way a wide stream is served in 64-lane passes.
func runWidths(t *testing.T, name string, check func(t *testing.T, rng *rand.Rand, block int)) {
	for _, lanes := range []int{64, 256, 512} {
		t.Run(fmt.Sprintf("%s/%d", name, lanes), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(lanes)))
			for block := 0; block < lanes/W; block++ {
				check(t, rng, block)
			}
		})
	}
}

// Broadcast looks only at the low bit of its argument.
func TestBroadcastVec(t *testing.T) {
	runWidths(t, "broadcast", func(t *testing.T, rng *rand.Rand, block int) {
		b := uint8(rng.Intn(256))
		want := uint64(0)
		if b&1 == 1 {
			want = ^uint64(0)
		}
		if got := Broadcast(b); got != want {
			t.Fatalf("block %d: Broadcast(%#x) = %x, want %x", block, b, got, want)
		}
	})
}

func TestLaneBitsVec(t *testing.T) {
	runWidths(t, "lanebits", func(t *testing.T, rng *rand.Rand, block int) {
		planes := make([]uint64, 37)
		type pt struct{ i, l int }
		set := map[pt]uint8{}
		for n := 0; n < 500; n++ {
			i, l, b := rng.Intn(len(planes)), rng.Intn(W), uint8(rng.Intn(2))
			SetLaneBit(planes, i, l, b)
			set[pt{i, l}] = b
		}
		for p, b := range set {
			if got := LaneBit(planes, p.i, p.l); got != b {
				t.Fatalf("block %d: bit (%d, lane %d) = %d, want %d", block, p.i, p.l, got, b)
			}
		}
		// ExtractLane must agree with LaneBit.
		for l := 0; l < W; l += 7 {
			bits := ExtractLane(planes, l)
			for i := range bits {
				if bits[i] != LaneBit(planes, i, l) {
					t.Fatalf("block %d: ExtractLane disagrees at (%d, lane %d)", block, i, l)
				}
			}
		}
	})
}

func TestPackBitsVecRoundTrip(t *testing.T) {
	runWidths(t, "packbits", func(t *testing.T, rng *rand.Rand, block int) {
		bits := make([][]uint8, W)
		for l := range bits {
			bits[l] = make([]uint8, 53)
			for i := range bits[l] {
				bits[l][i] = uint8(rng.Intn(2))
			}
		}
		back := UnpackBits(PackBits(bits), W)
		for l := range bits {
			for i := range bits[l] {
				if bits[l][i] != back[l][i] {
					t.Fatalf("block %d: lane %d bit %d: round trip broke", block, l, i)
				}
			}
		}
	})
}

func TestPackWordsVecRoundTrip(t *testing.T) {
	runWidths(t, "packwords", func(t *testing.T, rng *rand.Rand, block int) {
		for _, n := range []int{0, 1, 32, 63, 64} {
			var in [64]uint64
			vals := in[:n]
			for i := range vals {
				vals[i] = rng.Uint64()
			}
			planes := PackWords(&in)
			back := UnpackWords(&planes, n)
			for i := range vals {
				if back[i] != vals[i] {
					t.Fatalf("block %d n=%d lane %d: %x != %x", block, n, i, back[i], vals[i])
				}
			}
			// Plane i, lane L must be bit i of vals[L].
			for i := 0; i < 64; i += 13 {
				for l := 0; l < n; l += 19 {
					want := uint8((vals[l] >> uint(i)) & 1)
					if got := LaneBit(planes[:], i, l); got != want {
						t.Fatalf("block %d: plane %d lane %d: bit %d != %d", block, i, l, got, want)
					}
				}
			}
		}
	})
}

func TestTransposeVecInvolution(t *testing.T) {
	runWidths(t, "transpose", func(t *testing.T, rng *rand.Rand, block int) {
		var a, orig [64]V64
		for i := range a {
			a[i][0] = rng.Uint64()
		}
		orig = a
		TransposeVec(&a)
		// Spot-check the transposition itself: bit j of a[i] must be the
		// former bit i of a[j].
		for i := 0; i < 64; i += 11 {
			for j := 0; j < 64; j += 13 {
				if got, want := (a[i][0]>>uint(j))&1, (orig[j][0]>>uint(i))&1; got != want {
					t.Fatalf("block %d: transpose wrong at (%d,%d)", block, i, j)
				}
			}
		}
		TransposeVec(&a)
		if a != orig {
			t.Fatalf("block %d: TransposeVec is not an involution", block)
		}
	})
}

// TransposeVec, kept for the bench/ module, must agree exactly with
// Transpose64.
func TestVecMatchesScalarHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var a64 [64]uint64
	var av [64]V64
	for i := range a64 {
		a64[i] = rng.Uint64()
		av[i][0] = a64[i]
	}
	Transpose64(&a64)
	TransposeVec(&av)
	for i := range a64 {
		if a64[i] != av[i][0] {
			t.Fatalf("plane %d: TransposeVec diverges from Transpose64", i)
		}
	}
}
