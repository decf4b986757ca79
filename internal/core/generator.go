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
	// AESCTR is the bitsliced AES-128 counter-mode engine.
	AESCTR
	// TRIVIUM is the bitsliced Trivium engine — an extension beyond the
	// paper's three ciphers (the remaining eSTREAM hardware-profile
	// winner), and the fastest engine in this repository.
	TRIVIUM
	// XORGENS is the bitsliced xorgens-style F₂-linear engine (Brent's
	// xorgens4096 recurrence) — a fifth family whose state update is pure
	// word-XOR circuitry, following Nandapalan & Brent's line of work.
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

// DefaultLanes is the lane width used when a caller does not choose one.
const DefaultLanes = passLanes

// SupportedLanes lists the accepted lane widths. Every one of them runs
// the 64-lane datapath and yields identical bytes; 256 and 512 remain
// accepted so existing callers and URLs keep working.
var SupportedLanes = []int{64, 256, 512}

// ValidateLanes rejects lane counts outside SupportedLanes (0 selects
// DefaultLanes and is accepted).
func ValidateLanes(lanes int) error {
	if lanes == 0 {
		return nil
	}
	for _, n := range SupportedLanes {
		if lanes == n {
			return nil
		}
	}
	return fmt.Errorf("core: unsupported lane count %d (want one of %v)", lanes, SupportedLanes)
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
// One pass fills passLanes segments, lane l with the (i+l)-th; nextBlocks
// hands them out in order, and a spent pass keys every lane for the next
// passLanes. Lanes key independently, so no lane is wasted however spc
// splits a pass. A pass runs on the first emit after it is keyed, so it
// can aim as many lanes as fit straight at the caller's destination (the
// cipher then writes those segments exactly once, into their final
// resting place); only the overhang lanes land in the runner's private
// buffers for later copy-out.
type segmented struct {
	r               *passRunner
	emit            int    // next lane to hand out; passLanes once spent, -1 before the keyed pass runs
	i               uint64 // emission index of the current pass's lane 0
	spc, workers, w uint64 // the index rule
	seed, domain    uint64
}

// newSegmented builds the engine of one (seed, domain) stream under the
// index rule (spc, workers, w), keyed once, directly for the pass whose
// lane 0 is emission index i.
func newSegmented(alg Algorithm, seed, domain, i, spc, workers, w uint64) (*segmented, error) {
	e := &segmented{emit: -1, i: i, spc: spc, workers: workers, w: w, seed: seed, domain: domain}
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

// nextBlocks writes the next len(dst)/SegmentBytes segments into dst, a
// whole number of segments, letting whole passes land directly in dst
// (the zero-copy fast path).
func (e *segmented) nextBlocks(dst []byte) {
	for len(dst) > 0 {
		if e.emit == passLanes {
			e.i += passLanes
			e.keyLanes(e.r)
			e.emit = -1
		}
		if e.emit < 0 {
			k := min(len(dst)/SegmentBytes, passLanes)
			for l := range k {
				e.r.aim(l, dst[l*SegmentBytes:(l+1)*SegmentBytes])
			}
			e.r.run()
			e.emit, dst = k, dst[k*SegmentBytes:]
		}
		for ; e.emit < passLanes && len(dst) > 0; e.emit++ {
			copy(dst, e.r.priv[e.emit])
			dst = dst[SegmentBytes:]
		}
	}
}

// Generator is a deterministic single-engine BSRNG byte stream: one
// 64-lane bitsliced engine behind an io.Reader. The byte stream depends
// only on (algorithm, seed).
type Generator struct {
	alg Algorithm
	eng *segmented
	buf []byte
	pos int // unread offset into buf; len(buf) when empty
}

// NewGenerator builds a seeded generator at the default lane width.
func NewGenerator(alg Algorithm, seed uint64) (*Generator, error) {
	return NewSegmentReader(alg, seed, 0, DefaultLanes, 0)
}

// NewGeneratorLanes builds a seeded generator, accepting any lane width
// ValidateLanes accepts; every width yields the NewGenerator stream.
func NewGeneratorLanes(alg Algorithm, seed uint64, lanes int) (*Generator, error) {
	return NewSegmentReader(alg, seed, 0, lanes, 0)
}

// Algorithm reports which engine backs the generator.
func (g *Generator) Algorithm() Algorithm { return g.alg }

// Lanes reports the generator's datapath width: 64, whatever width it
// was built with.
func (g *Generator) Lanes() int { return passLanes }

// Read fills p with pseudo-random bytes; it never fails. Whole segments
// are generated directly into p — only a sub-segment head or tail passes
// through the generator's one-block buffer.
func (g *Generator) Read(p []byte) (int, error) {
	n := len(p)
	if g.pos < len(g.buf) {
		k := copy(p, g.buf[g.pos:])
		g.pos += k
		p = p[k:]
	}
	if aligned := len(p) - len(p)%len(g.buf); aligned > 0 {
		g.eng.nextBlocks(p[:aligned])
		p = p[aligned:]
	}
	if len(p) > 0 {
		g.eng.nextBlocks(g.buf)
		g.pos = copy(p, g.buf)
	}
	return n, nil
}

// Uint64 returns the next 8 output bytes as a little-endian word.
func (g *Generator) Uint64() uint64 {
	var b [8]byte
	g.Read(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Words fills dst with raw output words — the cheapest bulk path.
func (g *Generator) Words(dst []uint64) {
	var b [8]byte
	for i := range dst {
		g.Read(b[:])
		dst[i] = binary.LittleEndian.Uint64(b[:])
	}
}
