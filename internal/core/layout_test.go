package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzStreamLayout holds Stream and Fill to the one byte definition of
// the library: for any served algorithm, 1–8 workers, any staging size
// from 512 bytes to beyond one 64-segment pass (whole segments or not)
// and any mix of Read and WriteTo sizes, both produce exactly
// NewSegmentReader(alg, seed, 1, 64, 0).
//
// ops is a list of 3-byte records: a kind byte (even = Read, odd =
// WriteTo into a writer that fails after the size) and a little-endian
// uint16 size, plus one.
func FuzzStreamLayout(f *testing.F) {
	op := func(kind byte, n uint16) []byte { return binary.LittleEndian.AppendUint16([]byte{kind}, n-1) }
	cat := func(rs ...[]byte) []byte { return bytes.Join(rs, nil) }
	f.Add(uint64(1), byte(0), byte(0), uint32(64<<10), cat(op(0, 4096), op(1, 65535)))
	f.Add(uint64(2), byte(5), byte(2), uint32(512), cat(op(1, 3000), op(0, 1), op(0, 2047), op(1, 2049)))
	f.Add(uint64(3), byte(2), byte(7), uint32(5000), cat(op(0, 40000), op(1, 9999)))

	f.Fuzz(func(t *testing.T, seed uint64, algSel, workers byte, staging uint32, ops []byte) {
		alg := ServedAlgorithms[int(algSel)%len(ServedAlgorithms)]
		w := int(workers)%8 + 1
		// 512 bytes up to one pass and a quarter.
		stagingBytes := 512 + int(staging%(80*SegmentBytes))
		var sizes []int
		for ; len(ops) >= 3 && len(sizes) < 12; ops = ops[3:] {
			n := int(binary.LittleEndian.Uint16(ops[1:])) + 1
			if ops[0]%2 == 1 {
				n = -n // WriteTo
			}
			sizes = append(sizes, n)
		}
		total := 0
		for _, n := range sizes {
			total += max(n, -n)
		}
		want := segmentReaderWindow(t, alg, seed, 1, 0, total)

		s, err := NewStream(alg, seed, StreamConfig{Workers: w, StagingBytes: stagingBytes})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		got := make([]byte, 0, total)
		for _, n := range sizes {
			if n > 0 {
				buf := make([]byte, n)
				if _, err := io.ReadFull(s, buf); err != nil {
					t.Fatal(err)
				}
				got = append(got, buf...)
				continue
			}
			sink := &errSink{n: -n}
			if k, err := s.WriteTo(sink); k != int64(-n) || !errors.Is(err, errSinkFull) {
				t.Fatalf("WriteTo wrote %d bytes (%v), want %d", k, err, -n)
			}
			got = append(got, sink.buf.Bytes()...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v, %d workers, %d-byte staging, ops %v: Stream diverges from the domain-1 stream", alg, w, stagingBytes, sizes)
		}

		filled := make([]byte, total)
		if err := Fill(alg, seed, w, filled); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(filled, want) {
			t.Fatalf("%v, %d workers: Fill of %d bytes diverges from the domain-1 stream", alg, w, total)
		}
	})
}
