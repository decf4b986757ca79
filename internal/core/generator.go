package core

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/bitslice"
)

// Algorithm selects the underlying bitsliced CSPRNG.
type Algorithm int

const (
	// MICKEY is the bitsliced MICKEY 2.0 engine — the paper's headline
	// generator.
	MICKEY Algorithm = iota
	// GRAIN is the bitsliced Grain v1 engine.
	GRAIN
	// AESCTR is the AES-128 counter-mode engine: AES-NI CTR one lane at
	// a time where the CPU has AES-NI, the bitsliced cipher elsewhere.
	AESCTR
	// TRIVIUM is the bitsliced Trivium engine — an extension beyond the
	// paper's three ciphers (the remaining eSTREAM hardware-profile
	// winner), and the fastest engine in this repository.
	TRIVIUM
	// XORGENS is the xorgens-style F₂-linear engine (Brent's
	// xorgens4096 recurrence) — a fifth family whose state update is pure
	// word-XOR circuitry, following Nandapalan & Brent's line of work.
	// It is word-oriented, so it runs the scalar recurrence one lane at a
	// time, which on a CPU costs less than its bitsliced form.
	XORGENS
)

// chaoticFlag marks an Algorithm as a chaotic-iterations post-processed
// mode of its base engine (Bahi et al.; see internal/chaotic). The flag
// lives well above the base-engine range so base values stay dense for
// iteration and the composed value still round-trips through int.
const chaoticFlag Algorithm = 1 << 8

// Chaotic returns the chaotic-iterations post-processed mode of base.
// Composing an already-chaotic algorithm is idempotent.
func Chaotic(base Algorithm) Algorithm { return base.Base() | chaoticFlag }

// IsChaotic reports whether a is a chaotic post-processed mode.
func (a Algorithm) IsChaotic() bool { return a&chaoticFlag != 0 }

// Base returns the underlying engine of a chaotic mode (a itself for
// plain algorithms).
func (a Algorithm) Base() Algorithm { return a &^ chaoticFlag }

// String returns the algorithm's display name; chaotic modes render as
// "chaotic(<base>)", the spelling ParseAlgorithm accepts back.
func (a Algorithm) String() string {
	if a.IsChaotic() {
		return "chaotic(" + a.Base().String() + ")"
	}
	switch a {
	case MICKEY:
		return "mickey"
	case GRAIN:
		return "grain"
	case AESCTR:
		return "aes-ctr"
	case TRIVIUM:
		return "trivium"
	case XORGENS:
		return "xorgens"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// AlgorithmNames lists the accepted ParseAlgorithm spellings (canonical
// names first), for error messages and usage strings. "chaotic(<name>)"
// wraps any base engine in the chaotic-iterations post-processing mode.
var AlgorithmNames = []string{"mickey", "grain", "aes-ctr", "trivium", "xorgens", "aes", "chaotic(<name>)"}

// ParseAlgorithm maps a name (case-insensitive, surrounding whitespace
// ignored) to an Algorithm. "chaotic(<name>)" selects the
// chaotic-iterations post-processed mode of the named base engine.
func ParseAlgorithm(s string) (Algorithm, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	if inner, ok := strings.CutPrefix(name, "chaotic("); ok {
		inner, ok = strings.CutSuffix(inner, ")")
		if !ok {
			return 0, fmt.Errorf("core: malformed algorithm %q (want chaotic(<name>))", s)
		}
		base, err := ParseAlgorithm(inner)
		if err != nil {
			return 0, err
		}
		if base.IsChaotic() {
			return 0, fmt.Errorf("core: algorithm %q nests chaotic modes", s)
		}
		return Chaotic(base), nil
	}
	switch name {
	case "mickey":
		return MICKEY, nil
	case "grain":
		return GRAIN, nil
	case "aes-ctr", "aes":
		return AESCTR, nil
	case "trivium":
		return TRIVIUM, nil
	case "xorgens":
		return XORGENS, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want one of %s)", s, strings.Join(AlgorithmNames, ", "))
}

// ParseAlgorithms maps a comma-separated list of names to Algorithms,
// each name as ParseAlgorithm reads it. An empty or all-blank list
// returns nil, which the commands read as their default set.
func ParseAlgorithms(s string) ([]Algorithm, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []Algorithm
	for _, name := range strings.Split(s, ",") {
		alg, err := ParseAlgorithm(name)
		if err != nil {
			return nil, err
		}
		out = append(out, alg)
	}
	return out, nil
}

// Algorithms lists all base engines.
var Algorithms = []Algorithm{MICKEY, GRAIN, AESCTR, TRIVIUM, XORGENS}

// ServedAlgorithms is the default serving, benchmark and certification
// matrix: every base engine plus one chaotic post-processed mode
// (exercising the composition end-to-end without doubling the grid).
var ServedAlgorithms = []Algorithm{MICKEY, GRAIN, AESCTR, TRIVIUM, XORGENS, Chaotic(GRAIN)}

// SegmentBytes is the unit of the canonical BSRNG byte stream: the stream
// of one (seed, domain) pair is the concatenation of fixed-size segments,
// and segment j is keystream from a cipher instance keyed by
// PRF(seed, domain, j) (see laneMaterial.deriveLane). An engine
// computes 64 segments in one lock-step pass of the 64-lane datapath,
// each lane keyed for its own; which segments share a pass never
// changes their bytes.
const SegmentBytes = 2048

// passLanes is the width of every cipher pass: the 64-lane uint64
// datapath, one plane bit per lane.
const passLanes = bitslice.W

// passBytes is the output of one pass.
const passBytes = passLanes * SegmentBytes

// DefaultLanes is the width of the one datapath, 64 lanes: the value
// to pass where a lanes parameter kept for bench/ asks for one.
const DefaultLanes = passLanes

// checkLanes is the one check of the lane-width parameters kept for
// bench/ (NewGeneratorLanes, NewSegmentReader's lanes and
// StreamConfig.Lanes): it accepts 0, 64, 256 and 512, the widths
// callers could once choose. Every one runs the 64-lane datapath and
// yields identical bytes.
func checkLanes(lanes int) error {
	switch lanes {
	case 0, 64, 256, 512:
		return nil
	}
	return fmt.Errorf("core: unsupported lane count %d (want 64, 256 or 512)", lanes)
}

// segmented drives a pass runner through segments of one (seed, domain)
// stream by one index rule: the i-th segment it emits is
//
//	((i/spc)·workers + w)·spc + i%spc
//
// that is, runs of spc consecutive segments, one run in every workers.
// Worker w of a Stream with spc segments per staging chunk emits
// exactly the chunks c ≡ w (mod workers); a Generator is the workers = 1
// case, whose i-th segment is segment i, and starts at the emission
// index of its first segment.
//
// One pass fills passLanes segments, lane l with the (i+l)-th, and pos
// is the byte cursor into it; a spent pass keys every lane for the next
// passLanes. Lanes key independently, so no lane is wasted however spc
// splits a pass. A pass runs on the first read after it is keyed, so it
// can aim every lane whose whole segment lands in the caller's
// destination straight at it (the cipher then writes those segments
// exactly once, into their final resting place); only the other lanes
// land in the runner's private buffers for later copy-out.
type segmented struct {
	r               *passRunner
	pos             int    // byte cursor into the current pass; passBytes once spent
	ran             bool   // the current pass has run
	i               uint64 // emission index of the current pass's lane 0
	spc, workers, w uint64 // the index rule
	seed, domain    uint64
}

// newSegmented builds the engine of one (seed, domain) stream under the
// index rule (spc, workers, w), keyed once, directly for the pass whose
// lane 0 is emission index i, with its cursor at the start of that pass.
func newSegmented(alg Algorithm, seed, domain, i, spc, workers, w uint64) (*segmented, error) {
	e := &segmented{i: i, spc: spc, workers: workers, w: w, seed: seed, domain: domain}
	r, err := newPassRunner(alg, e.keyLanes)
	if err != nil {
		return nil, err
	}
	e.r = r
	return e, nil
}

// segment is the stream index of the i-th emitted segment.
func (e *segmented) segment(i uint64) uint64 {
	return (i/e.spc*e.workers+e.w)*e.spc + i%e.spc
}

// keyLanes keys r's lane l for the (e.i+l)-th emitted segment.
func (e *segmented) keyLanes(r *passRunner) {
	for l := range passLanes {
		r.key(l, e.seed, e.domain, e.segment(e.i+uint64(l)))
	}
}

// read fills p with the next len(p) bytes of the emitted segments. A
// pass that has not run yet aims the lanes whose whole segments land in
// p straight at p (the zero-copy fast path); every other byte is copied
// from the runner's private lanes.
func (e *segmented) read(p []byte) {
	for len(p) > 0 {
		if e.pos == passBytes {
			e.i += passLanes
			e.keyLanes(e.r)
			e.pos, e.ran = 0, false
		}
		if !e.ran {
			lo := (e.pos + SegmentBytes - 1) / SegmentBytes
			hi := min((e.pos+len(p))/SegmentBytes, passLanes)
			for l := lo; l < hi; l++ {
				e.r.aim(l, p[l*SegmentBytes-e.pos:][:SegmentBytes], 0)
			}
			e.r.run(passLanes)
			e.ran = true
			if lo < hi {
				// At most a mid-segment head precedes the aimed lanes.
				copy(p[:lo*SegmentBytes-e.pos], e.r.priv[e.pos/SegmentBytes][e.pos%SegmentBytes:])
				p = p[hi*SegmentBytes-e.pos:]
				e.pos = hi * SegmentBytes
				continue
			}
		}
		k := copy(p, e.r.priv[e.pos/SegmentBytes][e.pos%SegmentBytes:])
		e.pos += k
		p = p[k:]
	}
}

// Generator is a deterministic single-engine BSRNG byte stream: one
// pass runner behind an io.Reader, whose 64 lanes run as one bitsliced
// pass or one at a time as the engine's one-lane rule says (oneMaxFor).
// The byte stream depends only on (algorithm, seed).
type Generator struct {
	*segmented
	alg Algorithm
}

// NewGenerator builds a seeded generator: the domain-0 stream of seed.
func NewGenerator(alg Algorithm, seed uint64) (*Generator, error) {
	return NewSegmentReader(alg, seed, 0, 0, 0)
}

// NewGeneratorLanes is NewGenerator with a lane width, which checkLanes
// checks and nothing else reads. It stays only for bench/, which
// compiles against it; ROADMAP item 5 removes it together with its
// bench/ change.
func NewGeneratorLanes(alg Algorithm, seed uint64, lanes int) (*Generator, error) {
	return NewSegmentReader(alg, seed, 0, lanes, 0)
}

// Algorithm reports which engine backs the generator.
func (g *Generator) Algorithm() Algorithm { return g.alg }

// Read fills p with pseudo-random bytes; it never fails. The whole
// segments of a pass that has not run yet are generated directly into
// p; every other byte is copied out of the engine's lane buffers.
func (g *Generator) Read(p []byte) (int, error) {
	g.read(p)
	return len(p), nil
}

// Uint64 returns the next 8 output bytes as a little-endian word.
func (g *Generator) Uint64() uint64 {
	var b [8]byte
	g.read(b[:])
	return binary.LittleEndian.Uint64(b[:])
}
