package core

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/aes"
	"repro/internal/bitslice"
	"repro/internal/chaotic"
	"repro/internal/grain"
	"repro/internal/mickey"
	"repro/internal/trivium"
	"repro/internal/xorgens"
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

// segmented drives a 64-lane cipher through segments of one (seed,
// domain) stream by one index rule: the i-th segment it emits is
//
//	((i/spc)·workers + w)·spc + i%spc
//
// that is, runs of spc consecutive segments, one run in every workers.
// Worker w of a Stream with spc segments per staging chunk emits
// exactly the chunks c ≡ w (mod workers); a Generator is the workers = 1
// case, whose i-th segment is segment i, and starts at the emission
// index of its first segment.
//
// One lock-step pass fills passLanes segment buffers, lane l with the
// (i+l)-th segment; nextBlocks hands them out in order, and an exhausted
// pass keys every lane for the next passLanes. Lanes key independently,
// so no lane is wasted however spc splits a pass.
//
// The pass destination is chosen per fill: nextBlocks aims as many lane
// buffers as fit directly at the caller's destination (the cipher then
// writes those segments exactly once, into their final resting place)
// and parks only the overhang lanes in the engine's private buffers for
// later copy-out.
type segmented struct {
	priv            [passLanes][]byte // SegmentBytes private buffers, one backing array
	cur             [passLanes][]byte // current pass destination per lane: priv[l] or a dst subslice
	emit            int               // next segment slot to hand out
	filled          bool              // cur[emit..passLanes-1] hold generated segments
	i               uint64            // emission index of the current pass's slot 0
	spc, workers, w uint64            // the index rule
	seed, domain    uint64
	c               *laneCipher
}

// newSegmented builds the engine of one (seed, domain) stream under the
// index rule (spc, workers, w), keyed once, directly for the pass whose
// slot 0 is emission index i.
func newSegmented(alg Algorithm, seed, domain, i, spc, workers, w uint64) (*segmented, error) {
	e := &segmented{i: i, spc: spc, workers: workers, w: w, seed: seed, domain: domain}
	c, err := newCipher(alg, e.keyLanes)
	if err != nil {
		return nil, err
	}
	e.c = c
	backing := make([]byte, passLanes*SegmentBytes)
	for l := range e.priv {
		e.priv[l] = backing[l*SegmentBytes : (l+1)*SegmentBytes]
	}
	// The pass is generated lazily on the first emit so it can land
	// directly in the first caller's destination.
	return e, nil
}

// segment is the stream index of the i-th emitted segment.
func (e *segmented) segment(i uint64) uint64 {
	return (i/e.spc*e.workers+e.w)*e.spc + i%e.spc
}

// keyLanes derives c's lane l material for the (e.i+l)-th emitted
// segment.
func (e *segmented) keyLanes(c *laneCipher) {
	for l := range passLanes {
		c.key(l, e.seed, e.domain, e.segment(e.i+uint64(l)))
	}
}

// fillPass generates the current pass. Lanes whose segment slots land
// inside dst are aimed straight at it — the cipher writes them in place
// — and the rest go to the private buffers. dst is segment-aligned.
// Only called with emit==0: a pass is always generated from its first
// slot.
func (e *segmented) fillPass(dst []byte) {
	e.cur = e.priv
	for l := range min(len(dst)/SegmentBytes, passLanes) {
		e.cur[l] = dst[l*SegmentBytes : (l+1)*SegmentBytes]
	}
	e.c.pass(&e.cur)
	e.filled = true
}

// advancePass keys the cipher for the next passLanes emitted segments.
func (e *segmented) advancePass() {
	e.i += passLanes
	e.keyLanes(e.c)
	e.c.rekey()
	e.emit = 0
	e.filled = false
}

// nextBlocks writes the next len(dst)/SegmentBytes segments into dst, a
// whole number of segments, letting whole lock-step passes land directly
// in dst (the zero-copy fast path).
func (e *segmented) nextBlocks(dst []byte) {
	for len(dst) > 0 {
		if e.emit == passLanes {
			e.advancePass()
		}
		if !e.filled {
			e.fillPass(dst)
		}
		for e.emit < passLanes && len(dst) > 0 {
			// cur[emit] either aliases dst (direct fill) or holds a
			// parked segment in the private buffers.
			if src := e.cur[e.emit]; &src[0] != &dst[0] {
				copy(dst[:SegmentBytes], src)
			}
			e.emit++
			dst = dst[SegmentBytes:]
		}
	}
}

// cipher is the one contract every bitsliced engine meets for core: the
// two calls a pass makes. Rekey loads one key and one IV per lane from
// material whose shape the engine's constructor checked; Fill writes
// lane l's keystream into bufs[l], 64 buffers of one equal length.
// Neither checks anything or can fail.
type cipher interface {
	Rekey(keys, ivs [][]byte)
	Fill(bufs *[passLanes][]byte)
}

// laneCipher is one keyed lock-step cipher: its per-lane key/IV
// material and the 64-lane engine it keys. Lanes are independent cipher
// instances, so each may be keyed for any (domain, segment) — the
// segmented engine keys them by its index rule, a WindowSource for
// whatever segments its callers are waiting on. Chaotic modes carry a
// per-lane orbit start x0 and post-process every lane's segment after
// the fill.
type laneCipher struct {
	mat *laneMaterial
	x0s []uint64 // chaotic modes only
	eng cipher
}

// key derives lane l's material for segment seg of (seed, domain).
func (c *laneCipher) key(l int, seed, domain, seg uint64) {
	c.mat.deriveLane(l, seed, domain, seg)
	if c.x0s != nil {
		c.x0s[l] = chaoticX0(seed, domain, seg)
	}
}

// rekey loads the derived material into every lane.
func (c *laneCipher) rekey() { c.eng.Rekey(c.mat.keys, c.mat.ivs) }

// pass fills one SegmentBytes buffer per lane.
func (c *laneCipher) pass(bufs *[passLanes][]byte) {
	c.eng.Fill(bufs)
	for l, x0 := range c.x0s {
		chaotic.Post(bufs[l], x0)
	}
}

// newCipher builds the 64-lane cipher of alg with the material keyLanes
// derives for its first pass: construction is the only keying an engine
// pays for that pass, and the engine's constructor is where the
// material's shape is checked, once. The material scratch is sized here
// for good, so every later rekey reads the shape that check accepted.
func newCipher(alg Algorithm, keyLanes func(c *laneCipher)) (*laneCipher, error) {
	c := &laneCipher{}
	if alg.IsChaotic() {
		c.x0s = make([]uint64, passLanes)
	}
	material := func(keyLen, ivLen int) (keys, ivs [][]byte) {
		c.mat = newLaneMaterial(passLanes, keyLen, ivLen)
		keyLanes(c)
		return c.mat.keys, c.mat.ivs
	}
	var err error
	switch alg.Base() {
	case MICKEY:
		keys, ivs := material(mickey.KeySize, mickey.MaxIVBits/8)
		c.eng, err = mickey.NewSlicedVec[bitslice.V64](keys, ivs, mickey.MaxIVBits)
	case GRAIN:
		c.eng, err = grain.NewSlicedVec[bitslice.V64](material(grain.KeySize, grain.IVSize))
	case AESCTR:
		c.eng, err = aes.NewSlicedCTRVec[bitslice.V64](material(16, 8))
	case TRIVIUM:
		c.eng, err = trivium.NewSlicedVec[bitslice.V64](material(trivium.KeySize, trivium.IVSize))
	case XORGENS:
		c.eng, err = xorgens.NewSlicedVec[bitslice.V64](material(xorgens.KeySize, xorgens.IVSize))
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", alg)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
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
