package core

import "fmt"

// Resumable stream positioning: the canonical byte stream of one
// (seed, domain) pair is the concatenation of SegmentBytes-sized
// segments, and segment j's material depends only on (seed, domain, j)
// — never on how much of the stream was produced
// before it. That makes the stream randomly addressable: an engine can
// be keyed directly for any segment index and emit the identical bytes
// a from-the-start reader would have reached, which is what bsrngd's
// /stream endpoint and segment leases lean on to resume a client after
// a disconnect and to let any party re-derive a leased window
// byte-for-byte.

// maxSegmentIndex bounds addressable segment indices so byte-offset
// arithmetic (index * SegmentBytes) can never wrap a uint64.
const maxSegmentIndex = uint64(1) << 52

// NewSegmentReader returns a Generator positioned at absolute byte
// offset `offset` of the canonical (seed, domain) stream: the first
// byte it reads is byte `offset` of the stream a zero-offset reader
// would produce. domain 0 is exactly the NewGenerator stream, and
// domain 1 the bytes of every Stream and Fill of the seed.
//
// The reader's engine is keyed once, directly for the pass starting at
// segment offset/SegmentBytes — no bytes before the offset are generated
// — and its cursor starts offset%SegmentBytes bytes into that pass, so
// positioning costs one keying.
//
// lanes is checked (0, 64, 256 or 512) and otherwise ignored: every
// reader runs the 64-lane datapath. The parameter stays only for
// bench/, which compiles against it; ROADMAP item 5 removes it together
// with its bench/ change.
func NewSegmentReader(alg Algorithm, seed, domain uint64, lanes int, offset uint64) (*Generator, error) {
	seg, skip := offset/SegmentBytes, offset%SegmentBytes
	if seg >= maxSegmentIndex {
		return nil, fmt.Errorf("core: segment index %d out of range (max %d)", seg, maxSegmentIndex)
	}
	if err := checkLanes(lanes); err != nil {
		return nil, err
	}
	eng, err := newSegmented(alg, seed, domain, seg, 1, 1, 0)
	if err != nil {
		return nil, err
	}
	eng.pos = int(skip)
	return &Generator{segmented: eng, alg: alg}, nil
}
