package health

import (
	"errors"
	"math/rand"
	"testing"
)

// FuzzCheckMatchesRef drives Check and the exact scan from identical
// fuzz-chosen input. The segment is size%4097 bytes: a seeded
// pseudo-random fill with the fuzzer's data copied over its head. Three
// faults are then injected where the fuzzer says: a run of one byte
// value, a run of one bit value at any bit offset, and a biased APT
// window (copies of the window's first byte every step bytes). Check
// must return the exact scan's Failure (or nil), and both must leave
// equal Stats.
func FuzzCheckMatchesRef(f *testing.F) {
	f.Add([]byte{}, int64(1), uint16(2048),
		uint16(0), uint16(0), byte(0), uint16(0), uint16(0), false, uint16(0), uint16(0), uint8(0))
	f.Add([]byte{}, int64(2), uint16(2045),
		uint16(1003), uint16(8), byte(0x5A), uint16(8003), uint16(64), true, uint16(3), uint16(48), uint8(1))
	f.Add([]byte("\x00\x00\x00"), int64(3), uint16(9),
		uint16(0), uint16(0), byte(0), uint16(0), uint16(0), false, uint16(0), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, size uint16,
		runAt, runLen uint16, runByte byte,
		bitAt, bitLen uint16, bitOne bool,
		biasAt, biasCount uint16, biasStep uint8) {
		seg := make([]byte, int(size)%4097)
		rand.New(rand.NewSource(seed)).Read(seg)
		copy(seg, data)
		c, ref := NewChecker(Config{}), NewChecker(Config{})
		if n := len(seg); n > 0 {
			at := int(runAt) % n
			for i := at; i < min(at+int(runLen), n); i++ {
				seg[i] = runByte
			}
			bit := byte(0)
			if bitOne {
				bit = 1
			}
			at = int(bitAt) % (8 * n)
			for p := at; p < min(at+int(bitLen), 8*n); p++ {
				seg[p/8] = seg[p/8]&^(1<<(p%8)) | bit<<(p%8)
			}
			s := int(biasAt) % ((n + APTWindow - 1) / APTWindow) * APTWindow
			step := int(biasStep)%16 + 1
			for j := 1; j <= int(biasCount) && s+j*step < min(s+APTWindow, n); j++ {
				seg[s+j*step] = seg[s]
			}
		}

		err := c.Check(seg)
		want := scan(seg)
		ref.segments.Add(1)
		if want != nil {
			ref.failures[want.Test].Add(1)
		}
		var got *Failure
		if want == nil && err != nil || want != nil && (!errors.As(err, &got) || *got != *want) {
			t.Fatalf("%d bytes: Check = %v, exact scan = %v", len(seg), err, want)
		}
		if cs, rs := c.Stats(), ref.Stats(); cs != rs {
			t.Fatalf("stats %+v, exact scan stats %+v", cs, rs)
		}
	})
}
