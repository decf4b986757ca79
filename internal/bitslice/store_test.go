package bitslice_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/aes"
	"repro/internal/bitslice"
	"repro/internal/grain"
	"repro/internal/mickey"
	"repro/internal/trivium"
	"repro/internal/xorgens"
)

// keystreamer is the byte front door every bitsliced engine shares.
type keystreamer interface {
	Keystream(bufs [][]byte) error
}

// storeEngines builds each of the five engines that write through the
// lane store, from one key and one IV of the engine's sizes per lane.
var storeEngines = []struct {
	name      string
	key, iv   int
	block     int   // one keystream block per lane, in bytes
	tailLens  []int // lane lengths that are block multiples but not multiples of 64
	construct func(keys, ivs [][]byte) (keystreamer, error)
}{
	{"mickey", mickey.KeySize, mickey.MaxIVBits / 8, 8, []int{8, 56, 72, 2040},
		func(k, iv [][]byte) (keystreamer, error) {
			return mickey.NewSlicedVec[bitslice.V64](k, iv, mickey.MaxIVBits)
		}},
	{"grain", grain.KeySize, grain.IVSize, 8, []int{8, 56, 72, 2040},
		func(k, iv [][]byte) (keystreamer, error) { return grain.NewSlicedVec[bitslice.V64](k, iv) }},
	{"trivium", trivium.KeySize, trivium.IVSize, 8, []int{8, 56, 72, 2040},
		func(k, iv [][]byte) (keystreamer, error) { return trivium.NewSlicedVec[bitslice.V64](k, iv) }},
	{"xorgens", xorgens.KeySize, xorgens.IVSize, 8, []int{8, 56, 72, 2040},
		func(k, iv [][]byte) (keystreamer, error) { return xorgens.NewSlicedVec[bitslice.V64](k, iv) }},
	// AES-CTR buffers are multiples of its 16-byte block, so its tails
	// are the 16-byte multiples next to the others: 1, 3, 5 and 127
	// blocks.
	{"aes-ctr", 16, 8, aes.BlockSize, []int{16, 48, 80, 2032},
		func(k, iv [][]byte) (keystreamer, error) { return aes.NewSlicedCTRVec[bitslice.V64](k, iv) }},
}

// TestStoreTailPaths holds each engine's Keystream at lane lengths that
// end in a partial tile (and, for the shortest, never fill one) to the
// same lanes produced one block at a time. Every engine is a bank of 64
// lanes, so 3 buffers of the same lengths are refused before anything
// is written, and the refused call leaves the engine in step.
func TestStoreTailPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, e := range storeEngines {
		for _, lanes := range []int{64, 3} {
			for _, n := range e.tailLens {
				t.Run(fmt.Sprintf("%s/lanes=%d/n=%d", e.name, lanes, n), func(t *testing.T) {
					keys, ivs := material(rng, e.key, e.iv, bitslice.W)
					whole, err := e.construct(keys, ivs)
					if err != nil {
						t.Fatal(err)
					}
					step, err := e.construct(keys, ivs)
					if err != nil {
						t.Fatal(err)
					}
					if lanes != bitslice.W {
						refused := laneBufs(lanes, n)
						if whole.Keystream(refused) == nil {
							t.Fatalf("Keystream accepted %d buffers", lanes)
						}
						for l, b := range refused {
							if !bytes.Equal(b, make([]byte, n)) {
								t.Fatalf("refused Keystream wrote lane %d", l)
							}
						}
					}
					got := laneBufs(bitslice.W, n)
					if err := whole.Keystream(got); err != nil {
						t.Fatal(err)
					}
					want, blk := laneBufs(bitslice.W, n), laneBufs(bitslice.W, e.block)
					for off := 0; off < n; off += e.block {
						if err := step.Keystream(blk); err != nil {
							t.Fatal(err)
						}
						for l := range want {
							copy(want[l][off:], blk[l])
						}
					}
					for l := range got {
						if !bytes.Equal(got[l], want[l]) {
							t.Fatalf("lane %d differs from the block-at-a-time keystream", l)
						}
					}
				})
			}
		}
	}
}

// TestFrontDoorsRejectLaneCounts holds every engine's checked front door
// to the one bank width: constructors and Reseed refuse 1 and 65 lanes'
// worth of material, and Keystream refuses 63 buffers.
func TestFrontDoorsRejectLaneCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, e := range storeEngines {
		keys, ivs := material(rng, e.key, e.iv, bitslice.W+1)
		g, err := e.construct(keys[:bitslice.W], ivs[:bitslice.W])
		if err != nil {
			t.Fatal(err)
		}
		for _, lanes := range []int{1, bitslice.W + 1} {
			if _, err := e.construct(keys[:lanes], ivs[:lanes]); err == nil {
				t.Errorf("%s: constructor accepted %d lanes", e.name, lanes)
			}
			if err := reseed(g, keys[:lanes], ivs[:lanes]); err == nil {
				t.Errorf("%s: Reseed accepted %d lanes", e.name, lanes)
			}
		}
		if err := g.Keystream(laneBufs(bitslice.W-1, 2*e.block)); err == nil {
			t.Errorf("%s: Keystream accepted %d buffers", e.name, bitslice.W-1)
		}
	}
	// The bare block cipher and the batch read have front doors of
	// their own.
	keys, _ := material(rng, 16, 0, bitslice.W+1)
	a, err := aes.NewSliced(keys[:bitslice.W])
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{1, bitslice.W + 1} {
		if _, err := aes.NewSliced(keys[:lanes]); err == nil {
			t.Errorf("aes.NewSliced accepted %d lanes", lanes)
		}
		if err := a.Reseed(keys[:lanes]); err == nil {
			t.Errorf("aes.Sliced.Reseed accepted %d lanes", lanes)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NextBatch accepted a buffer for 63 lanes")
		}
	}()
	ctr, _ := aes.NewSlicedCTRVec[bitslice.V64](keys[:bitslice.W], laneBufs(bitslice.W, 8))
	ctr.NextBatch(make([]byte, (bitslice.W-1)*aes.BlockSize))
}

// reseeder is the Reseed front door of every engine but mickey, whose
// Reseed also takes the IV length.
type reseeder interface {
	Reseed(keys, ivs [][]byte) error
}

// reseed is each engine's Reseed.
func reseed(g keystreamer, keys, ivs [][]byte) error {
	if m, ok := g.(*mickey.Sliced); ok {
		return m.Reseed(keys, ivs, mickey.MaxIVBits)
	}
	return g.(reseeder).Reseed(keys, ivs)
}

// material returns n random keys and IVs of the given sizes.
func material(rng *rand.Rand, key, iv, n int) (keys, ivs [][]byte) {
	keys, ivs = make([][]byte, n), make([][]byte, n)
	for l := range keys {
		keys[l], ivs[l] = make([]byte, key), make([]byte, iv)
		rng.Read(keys[l])
		rng.Read(ivs[l])
	}
	return keys, ivs
}

func laneBufs(lanes, n int) [][]byte {
	bufs := make([][]byte, lanes)
	for l := range bufs {
		bufs[l] = make([]byte, n)
	}
	return bufs
}
