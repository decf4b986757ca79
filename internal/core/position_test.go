package core

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// A SegmentReader at byte offset K must continue the canonical
// (seed, domain) stream exactly where a from-the-start reader left off,
// at every lane width and for offsets landing on and inside segment
// boundaries.
func TestSegmentReaderMatchesGenerator(t *testing.T) {
	const seed = 99
	offsets := []uint64{
		0, 1, SegmentBytes - 1, SegmentBytes, SegmentBytes + 1,
		3*SegmentBytes + 1000, 64 * SegmentBytes, 65*SegmentBytes + 7,
	}
	for _, alg := range []Algorithm{MICKEY, TRIVIUM, XORGENS, Chaotic(GRAIN)} {
		ref, err := NewGenerator(alg, seed)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: one long prefix covering the largest offset + window.
		const window = 3 * SegmentBytes
		prefix := make([]byte, int(offsets[len(offsets)-1])+window)
		if _, err := io.ReadFull(ref, prefix); err != nil {
			t.Fatal(err)
		}
		for _, lanes := range keptLanes {
			for _, off := range offsets {
				r, err := NewSegmentReader(alg, seed, 0, lanes, off)
				if err != nil {
					t.Fatalf("%v lanes=%d off=%d: %v", alg, lanes, off, err)
				}
				got := make([]byte, window)
				if _, err := io.ReadFull(r, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, prefix[off:int(off)+window]) {
					t.Fatalf("%v lanes=%d: bytes at offset %d diverge from the canonical stream", alg, lanes, off)
				}
			}
		}
	}
}

// Every Stream is exactly domain 1 of the segment address space, so a
// SegmentReader on domain 1 must reproduce (and be able to resume) the
// Stream's bytes.
func TestSegmentReaderMatchesStreamWorkerDomain(t *testing.T) {
	const seed = 7
	st, err := NewStream(GRAIN, seed, StreamConfig{Workers: 2, StagingBytes: SegmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	prefix := make([]byte, 5*SegmentBytes)
	if _, err := io.ReadFull(st, prefix); err != nil {
		t.Fatal(err)
	}
	for _, off := range []uint64{0, SegmentBytes + 123, 2 * SegmentBytes} {
		r, err := NewSegmentReader(GRAIN, seed, 1, 0, off)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 2*SegmentBytes)
		if _, err := io.ReadFull(r, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, prefix[off:int(off)+len(got)]) {
			t.Fatalf("domain-1 reader at offset %d diverges from the 1-worker stream", off)
		}
	}
}

// Positioning far into the stream must be self-consistent without
// generating the prefix: a reader at offset K and a reader at K-delta
// (after discarding delta bytes) agree, and every lane width lands on
// the same bytes.
func TestSegmentReaderFarSeekConsistency(t *testing.T) {
	const seed = 1234
	const far = uint64(1<<20)*SegmentBytes + 777 // ~2 GiB in, mid-segment
	want := make([]byte, SegmentBytes)
	r64, err := NewSegmentReader(TRIVIUM, seed, 3, 64, far)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(r64, want); err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{256, 512} {
		r, err := NewSegmentReader(TRIVIUM, seed, 3, lanes, far)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, SegmentBytes)
		if _, err := io.ReadFull(r, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("lanes=%d far seek diverges from lanes=64", lanes)
		}
	}
	const delta = 300
	rb, err := NewSegmentReader(TRIVIUM, seed, 3, 64, far-delta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(io.Discard, rb, delta); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, SegmentBytes)
	if _, err := io.ReadFull(rb, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("reader seeked short and skipped forward diverges from direct seek")
	}
}

func TestSegmentReaderOffsetOutOfRange(t *testing.T) {
	if _, err := NewSegmentReader(MICKEY, 1, 0, 0, ^uint64(0)); err == nil {
		t.Fatal("astronomical offset accepted")
	} else if !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := NewSegmentReader(MICKEY, 1, 0, 63, 0); err == nil {
		t.Fatal("invalid lane width accepted")
	}
}

// The steady-state aligned read path of a positioned reader is the
// zero-copy engine path: whole segments land straight in the caller's
// buffer with no per-read allocation.
func TestSegmentReaderAlignedReadAllocs(t *testing.T) {
	r, err := NewSegmentReader(GRAIN, 5, 0, 0, SegmentBytes*10+64)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*SegmentBytes)
	r.Read(buf) // absorb the mid-segment head
	if avg := testing.AllocsPerRun(50, func() { r.Read(buf) }); avg > 0.5 {
		t.Fatalf("aligned SegmentReader.Read allocates %.1f per call, want ~0", avg)
	}
}
