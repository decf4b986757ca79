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
// same lanes produced one block at a time.
func TestStoreTailPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, e := range storeEngines {
		for _, lanes := range []int{64, 3} {
			for _, n := range e.tailLens {
				t.Run(fmt.Sprintf("%s/lanes=%d/n=%d", e.name, lanes, n), func(t *testing.T) {
					keys, ivs := make([][]byte, lanes), make([][]byte, lanes)
					for l := range keys {
						keys[l], ivs[l] = make([]byte, e.key), make([]byte, e.iv)
						rng.Read(keys[l])
						rng.Read(ivs[l])
					}
					whole, err := e.construct(keys, ivs)
					if err != nil {
						t.Fatal(err)
					}
					step, err := e.construct(keys, ivs)
					if err != nil {
						t.Fatal(err)
					}
					got := laneBufs(lanes, n)
					if err := whole.Keystream(got); err != nil {
						t.Fatal(err)
					}
					want, blk := laneBufs(lanes, n), laneBufs(lanes, e.block)
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

func laneBufs(lanes, n int) [][]byte {
	bufs := make([][]byte, lanes)
	for l := range bufs {
		bufs[l] = make([]byte, n)
	}
	return bufs
}
