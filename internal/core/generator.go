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
// PRF(seed, domain, j) (see segmentMaterial). A W-lane engine computes W
// consecutive segments in one lock-step pass — lane width changes how many
// segments are produced per pass, never their bytes, so every datapath
// width emits the identical stream.
const SegmentBytes = 2048

// DefaultLanes is the lane width used when a caller does not choose one:
// the native 64-lane uint64 datapath.
const DefaultLanes = 64

// SupportedLanes lists the valid engine lane widths: 64 (uint64 planes),
// 256 (quad-word planes) and 512 (oct-word planes).
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

// engine is one bitsliced generator producing the canonical segment
// stream of a (seed, domain) pair.
type engine interface {
	// blockBytes is the output of one nextBlock call.
	blockBytes() int
	// nextBlock writes exactly blockBytes() bytes.
	nextBlock(dst []byte)
	// nextBlocks writes len(dst) bytes — a multiple of blockBytes() —
	// letting the engine place whole lock-step passes directly into dst
	// (the zero-copy fast path). check, when non-nil, runs on every
	// block right after it lands in dst; it may call reseed and
	// nextBlock reentrantly to condemn and regenerate that block.
	nextBlocks(dst []byte, check func(seg []byte))
	// reseed condemns the block most recently emitted by nextBlock: the
	// engine rekeys itself with fresh material (a bumped reseed epoch)
	// and the next nextBlock call regenerates that block's slot. Used
	// by the continuous health tests to discard a failed segment.
	reseed()
}

// segmented drives a wide-lane cipher through the segment stream: one
// lock-step pass fills `lanes` segment buffers (lane l = segment base+l),
// nextBlock hands them out in order, and an exhausted pass rekeys the
// cipher for the next `lanes` segment indices.
//
// The pass destination is chosen per fill: nextBlocks aims as many lane
// buffers as fit directly at the caller's destination (the cipher then
// writes those segments exactly once, into their final resting place)
// and parks only the overhang lanes in the engine's private buffers for
// later copy-out. The private buffers also carry every health-reseed
// regeneration — see reseed.
type segmented struct {
	lanes        int
	priv         [][]byte // lanes × SegmentBytes private buffers, one backing array
	cur          [][]byte // current pass destination per lane: priv[l] or a dst subslice
	emit         int      // next segment slot to hand out
	filled       bool     // cur[emit..lanes-1] hold generated segments
	base         uint64   // absolute segment index of the current pass's slot 0
	epoch        uint64   // reseed generation; 0 = canonical stream
	seed, domain uint64
	c            *laneCipher
}

// newSegmented builds the engine of one (seed, domain) pair at the given
// lane width (0 = DefaultLanes), keyed once, directly for the pass whose
// slot 0 is absolute segment index base. The emitted byte stream is
// identical at every supported width.
func newSegmented(alg Algorithm, seed, domain uint64, lanes int, base uint64) (*segmented, error) {
	if lanes == 0 {
		lanes = DefaultLanes
	}
	c, err := newLaneCipher(alg, lanes, seed, domain, base)
	if err != nil {
		return nil, err
	}
	e := &segmented{lanes: lanes, base: base, seed: seed, domain: domain, c: c}
	backing := make([]byte, lanes*SegmentBytes)
	e.priv = make([][]byte, lanes)
	e.cur = make([][]byte, lanes)
	for l := range e.priv {
		e.priv[l] = backing[l*SegmentBytes : (l+1)*SegmentBytes]
	}
	// The pass is generated lazily on the first emit so it can land
	// directly in the first caller's destination.
	return e, nil
}

// newEngine builds a fully-seeded engine for one (seed, domain) pair,
// positioned at segment 0.
func newEngine(alg Algorithm, seed, domain uint64, lanes int) (engine, error) {
	e, err := newSegmented(alg, seed, domain, lanes, 0)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// rekey keys every lane for the pass at e.base under e.epoch.
func (e *segmented) rekey() {
	e.c.keyPass(e.seed, e.domain, e.base, e.epoch)
	if err := e.c.reseed(); err != nil {
		panic("core: segment rekey failed: " + err.Error())
	}
}

// fillPass generates the current pass. Lanes whose segment slots land
// inside dst are aimed straight at it — the cipher writes them in place
// — and the rest go to the private buffers. dst must be segment-aligned
// and is nil on the nextBlock (copy-out) path. Only called with emit==0:
// a pass is always generated from its first slot.
func (e *segmented) fillPass(dst []byte) {
	direct := len(dst) / SegmentBytes
	if direct > e.lanes {
		direct = e.lanes
	}
	for l := 0; l < direct; l++ {
		e.cur[l] = dst[l*SegmentBytes : (l+1)*SegmentBytes]
	}
	copy(e.cur[direct:], e.priv[direct:])
	if err := e.c.pass(e.cur); err != nil {
		panic("core: segment fill failed: " + err.Error())
	}
	e.filled = true
}

// advancePass rekeys the cipher for the next `lanes` segment indices.
func (e *segmented) advancePass() {
	e.base += uint64(e.lanes)
	e.rekey()
	e.emit = 0
	e.filled = false
}

func (e *segmented) blockBytes() int { return SegmentBytes }

func (e *segmented) nextBlock(dst []byte) {
	if e.emit == e.lanes {
		e.advancePass()
	}
	if !e.filled {
		e.fillPass(nil)
	}
	if src := e.cur[e.emit]; &src[0] != &dst[0] {
		copy(dst, src)
	}
	e.emit++
}

func (e *segmented) nextBlocks(dst []byte, check func(seg []byte)) {
	if len(dst)%SegmentBytes != 0 {
		panic("core: nextBlocks destination not segment-aligned")
	}
	for len(dst) > 0 {
		if e.emit == e.lanes {
			e.advancePass()
		}
		if !e.filled {
			e.fillPass(dst)
		}
		for e.emit < e.lanes && len(dst) > 0 {
			seg := dst[:SegmentBytes]
			// cur[emit] either aliases seg (direct fill) or holds a
			// parked segment in the private buffers; re-read it every
			// iteration because check may reseed mid-pass.
			if src := e.cur[e.emit]; &src[0] != &seg[0] {
				copy(seg, src)
			}
			e.emit++
			dst = dst[SegmentBytes:]
			if check != nil {
				check(seg)
			}
		}
	}
}

// reseed discards the current lock-step pass under a bumped epoch and
// re-aims at the last emitted segment slot, so the condemned segment
// (and every later one from this engine) is regenerated from fresh,
// unrelated key/IV material. The canonical epoch-0 stream is untouched
// for engines whose segments never fail a health check.
//
// The regeneration always lands in the private buffers, never in a
// caller's destination: earlier slots of a directly-filled pass have
// already been delivered (possibly into the same destination buffer)
// and must keep their bytes, so the refreshed pass is parked privately
// and copied out slot by slot from the condemned one on.
func (e *segmented) reseed() {
	e.epoch++
	if e.emit > 0 {
		e.emit--
	}
	copy(e.cur, e.priv)
	e.rekey()
	if err := e.c.pass(e.cur); err != nil {
		panic("core: segment fill failed: " + err.Error())
	}
	e.filled = true
}

// laneCipher is one keyed lock-step cipher: its per-lane key/IV
// material, the reseed that loads that material into every lane, and
// the pass that fills one segment buffer per lane. Lanes are independent
// cipher instances, so each may be keyed for any (domain, segment) — the
// segmented engine keys them for consecutive segments of one stream, a
// WindowSource for whatever segments its callers are waiting on.
// Chaotic modes carry a per-lane orbit start x0 and post-process every
// lane's segment after the fill.
type laneCipher struct {
	mat    *laneMaterial
	x0s    []uint64 // chaotic modes only
	reseed func() error
	fill   func(bufs [][]byte) error
}

// key derives lane l's material for segment seg of (seed, domain).
func (c *laneCipher) key(l int, seed, domain, seg, epoch uint64) {
	c.mat.deriveLane(l, seed, domain, seg, epoch)
	if c.x0s != nil {
		c.x0s[l] = chaoticX0(seed, domain, seg, epoch)
	}
}

// keyPass derives the material of segments base..base+lanes-1, lane l
// for segment base+l.
func (c *laneCipher) keyPass(seed, domain, base, epoch uint64) {
	c.mat.derive(seed, domain, base, epoch)
	deriveChaoticX0s(c.x0s, seed, domain, base, epoch)
}

// pass fills one SegmentBytes buffer per lane.
func (c *laneCipher) pass(bufs [][]byte) error {
	if err := c.fill(bufs); err != nil {
		return err
	}
	for l, x0 := range c.x0s {
		chaotic.Post(bufs[l], x0)
	}
	return nil
}

// newLaneCipher builds the cipher of alg at a supported lane width,
// keyed for segments base..base+lanes-1 of (seed, domain): construction
// is the only keying an engine pays for its first pass.
func newLaneCipher(alg Algorithm, lanes int, seed, domain, base uint64) (*laneCipher, error) {
	switch lanes {
	case 64:
		return newCipherWidth[bitslice.V64](alg, lanes, seed, domain, base)
	case 256:
		return newCipherWidth[bitslice.V256](alg, lanes, seed, domain, base)
	case 512:
		return newCipherWidth[bitslice.V512](alg, lanes, seed, domain, base)
	}
	return nil, fmt.Errorf("core: unsupported lane count %d (want one of %v)", lanes, SupportedLanes)
}

// cipherRow is one base engine's entry in the cipher table: its key and
// IV sizes, and the constructor that keys a cipher from mat and returns
// its reseed and fill hooks. The ciphers copy the material into their
// own state and never retain the slices, so one laneMaterial scratch
// serves every rekey and the steady state allocates nothing.
type cipherRow struct {
	keyLen, ivLen int
	build         func(mat *laneMaterial) (reseed func() error, fill func([][]byte) error, err error)
}

// newCipherWidth builds alg's cipher at vector width V from its row of
// the cipher table, keyed as newLaneCipher describes.
func newCipherWidth[V bitslice.Vec](alg Algorithm, lanes int, seed, domain, base uint64) (*laneCipher, error) {
	table := [...]cipherRow{
		MICKEY: {mickey.KeySize, mickey.MaxIVBits / 8, func(m *laneMaterial) (func() error, func([][]byte) error, error) {
			c, err := mickey.NewSlicedVec[V](m.keys, m.ivs, mickey.MaxIVBits)
			if err != nil {
				return nil, nil, err
			}
			return func() error { return c.Reseed(m.keys, m.ivs, mickey.MaxIVBits) }, c.Keystream, nil
		}},
		GRAIN: {grain.KeySize, grain.IVSize, func(m *laneMaterial) (func() error, func([][]byte) error, error) {
			c, err := grain.NewSlicedVec[V](m.keys, m.ivs)
			if err != nil {
				return nil, nil, err
			}
			return func() error { return c.Reseed(m.keys, m.ivs) }, c.Keystream, nil
		}},
		AESCTR: {16, 8, func(m *laneMaterial) (func() error, func([][]byte) error, error) {
			c, err := aes.NewSlicedCTRVec[V](m.keys, m.ivs)
			if err != nil {
				return nil, nil, err
			}
			return func() error { return c.Reseed(m.keys, m.ivs) }, c.Keystream, nil
		}},
		TRIVIUM: {trivium.KeySize, trivium.IVSize, func(m *laneMaterial) (func() error, func([][]byte) error, error) {
			c, err := trivium.NewSlicedVec[V](m.keys, m.ivs)
			if err != nil {
				return nil, nil, err
			}
			return func() error { return c.Reseed(m.keys, m.ivs) }, c.Keystream, nil
		}},
		XORGENS: {xorgens.KeySize, xorgens.IVSize, func(m *laneMaterial) (func() error, func([][]byte) error, error) {
			c, err := xorgens.NewSlicedVec[V](m.keys, m.ivs)
			if err != nil {
				return nil, nil, err
			}
			return func() error { return c.Reseed(m.keys, m.ivs) }, c.Keystream, nil
		}},
	}
	baseAlg := alg.Base()
	if baseAlg < 0 || int(baseAlg) >= len(table) {
		return nil, fmt.Errorf("core: unknown algorithm %v", alg)
	}
	row := table[baseAlg]
	c := &laneCipher{mat: newLaneMaterial(lanes, row.keyLen, row.ivLen)}
	if alg.IsChaotic() {
		c.x0s = make([]uint64, lanes)
	}
	c.keyPass(seed, domain, base, 0)
	var err error
	if c.reseed, c.fill, err = row.build(c.mat); err != nil {
		return nil, err
	}
	return c, nil
}

// Generator is a deterministic single-engine BSRNG byte stream: one
// wide-lane bitsliced engine behind an io.Reader. The byte stream depends
// only on (algorithm, seed), not on the lane width.
type Generator struct {
	alg   Algorithm
	lanes int
	eng   engine
	buf   []byte
	pos   int // unread offset into buf; len(buf) when empty
}

// NewGenerator builds a seeded generator at the default lane width.
func NewGenerator(alg Algorithm, seed uint64) (*Generator, error) {
	return NewGeneratorLanes(alg, seed, DefaultLanes)
}

// NewGeneratorLanes builds a seeded generator at an explicit lane width
// (0 = DefaultLanes; see SupportedLanes).
func NewGeneratorLanes(alg Algorithm, seed uint64, lanes int) (*Generator, error) {
	if lanes == 0 {
		lanes = DefaultLanes
	}
	eng, err := newEngine(alg, seed, 0, lanes)
	if err != nil {
		return nil, err
	}
	g := &Generator{alg: alg, lanes: lanes, eng: eng}
	g.buf = make([]byte, eng.blockBytes())
	g.pos = len(g.buf)
	return g, nil
}

// Algorithm reports which engine backs the generator.
func (g *Generator) Algorithm() Algorithm { return g.alg }

// Lanes reports the generator's datapath width.
func (g *Generator) Lanes() int { return g.lanes }

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
		g.eng.nextBlocks(p[:aligned], nil)
		p = p[aligned:]
	}
	if len(p) > 0 {
		g.eng.nextBlock(g.buf)
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
