package bitslice

import (
	"fmt"
	"math/bits"
)

// Shape is one bitsliced engine's material and buffer contract: the one
// set of checks its byte-string front doors (constructors, Reseed,
// Keystream, batch reads) run before they touch any state. Every engine
// is a bank of exactly W lanes, so every check wants W strings or
// buffers. Per-pass rekeys and fills read material and buffers whose
// shape was checked once, at construction, and run no checks of their
// own.
type Shape struct {
	Pkg   string // error prefix: the engine's package name
	Key   int    // key bytes per lane
	IV    int    // IV bytes per lane
	MinIV bool   // IV is a minimum length, not an exact one
	Block int    // keystream buffers are equal multiples of Block bytes
}

// CheckKeys validates one key per lane, W lanes.
func (s Shape) CheckKeys(keys [][]byte) error {
	if len(keys) != W {
		return fmt.Errorf("%s: %d keys for %d lanes", s.Pkg, len(keys), W)
	}
	for l, k := range keys {
		if len(k) != s.Key {
			return fmt.Errorf("%s: lane %d: key must be %d bytes", s.Pkg, l, s.Key)
		}
	}
	return nil
}

// Check validates one key and one IV per lane, W lanes.
func (s Shape) Check(keys, ivs [][]byte) error {
	if err := s.CheckKeys(keys); err != nil {
		return err
	}
	if len(ivs) != W {
		return fmt.Errorf("%s: %d ivs for %d lanes", s.Pkg, len(ivs), W)
	}
	for l, iv := range ivs {
		switch {
		case s.MinIV && len(iv) < s.IV:
			return fmt.Errorf("%s: lane %d: iv must be at least %d bytes", s.Pkg, l, s.IV)
		case !s.MinIV && len(iv) != s.IV:
			return fmt.Errorf("%s: lane %d: iv must be %d bytes", s.Pkg, l, s.IV)
		}
	}
	return nil
}

// CheckBuffers validates one keystream buffer per lane, W buffers of
// one length, a multiple of Block bytes.
func (s Shape) CheckBuffers(bufs [][]byte) error {
	if len(bufs) != W {
		return fmt.Errorf("%s: %d buffers for %d lanes", s.Pkg, len(bufs), W)
	}
	for _, b := range bufs {
		if len(b) != len(bufs[0]) {
			return fmt.Errorf("%s: ragged keystream buffers", s.Pkg)
		}
	}
	if len(bufs[0])%s.Block != 0 {
		return fmt.Errorf("%s: buffer length must be a multiple of %d", s.Pkg, s.Block)
	}
	return nil
}

// CheckBatch validates a batch buffer that holds Block bytes for each of
// the W lanes.
func (s Shape) CheckBatch(dst []byte) error {
	if len(dst) < W*s.Block {
		return fmt.Errorf("%s: batch buffer of %d bytes, want at least %d", s.Pkg, len(dst), W*s.Block)
	}
	return nil
}

// PackBytes loads 64 bits of every lane's byte string into planes: plane
// i, bit L is bit 8·off+i of src[L], bits taken MSB-first within each
// byte (the eSTREAM loading convention). Bits past the end of a string,
// and lanes past len(src) (at most W), are zero. It is the one key/IV
// loader of the bitsliced engines.
func PackBytes(dst *[64]uint64, src [][]byte, off int) {
	var vals [64]uint64
	for l, p := range src {
		var w uint64
		for j := 0; j < 8 && off+j < len(p); j++ {
			w |= uint64(bits.Reverse8(p[off+j])) << uint(8*j)
		}
		vals[l] = w
	}
	*dst = PackWords(&vals)
}
