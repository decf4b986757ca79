package core

import (
	"fmt"

	"repro/internal/aes"
	"repro/internal/bitslice"
	"repro/internal/chaotic"
	"repro/internal/grain"
	"repro/internal/mickey"
	"repro/internal/trivium"
	"repro/internal/xorgens"
)

// cipher is the one contract every bitsliced engine meets for core: the
// two calls a pass makes. Rekey loads one key and one IV per lane from
// material whose shape the engine's constructor checked; Fill writes
// lane l's keystream into bufs[l], 64 buffers of one equal length.
// Neither checks anything or can fail.
type cipher interface {
	Rekey(keys, ivs [][]byte)
	Fill(bufs *[passLanes][]byte)
}

// passRunner is the one place a pass is produced, and the one place the
// one-lane rule is applied: a keyed 64-lane cipher, the engine's
// one-lane function, 64 private SegmentBytes lane buffers and each
// lane's destination in the next run. Lanes are independent cipher
// instances, so the owner (segmented, WindowSource) keys each lane for
// any (domain, segment), aims each lane at the bytes it wants and runs
// the lanes it keyed; it copies the lanes that wrote their private
// buffers out of them. Chaotic modes carry a per-lane orbit start x0
// and post-process every served lane's segment after it is written.
type passRunner struct {
	mat   *laneMaterial
	x0s   []uint64 // chaotic modes only
	eng   cipher
	stale bool              // some lane was keyed since eng last loaded mat
	priv  [passLanes][]byte // SegmentBytes each, one backing array
	dst   [passLanes][]byte // next run's destination per lane: caller memory or (a prefix of) priv[l]

	// one is the engine's one-lane function, nil if it has none; oneMax
	// is the largest run that serves its lanes one at a time with it
	// instead of by a 64-lane pass (0 without one).
	one    func(key, iv, dst []byte)
	oneMax int
}

// newPassRunner builds the pass runner of alg with the material keyLanes
// derives for its first pass: construction is the only keying an engine
// pays for that pass, and the engine's constructor is where the
// material's shape is checked, once. The material scratch is sized here
// for good, so every later rekey reads the shape that check accepted.
func newPassRunner(alg Algorithm, keyLanes func(r *passRunner)) (*passRunner, error) {
	r := &passRunner{}
	if alg.IsChaotic() {
		r.x0s = make([]uint64, passLanes)
	}
	material := func(keyLen, ivLen int) (keys, ivs [][]byte) {
		r.mat = newLaneMaterial(keyLen, ivLen)
		keyLanes(r)
		return r.mat.keys, r.mat.ivs
	}
	var err error
	switch alg.Base() {
	case MICKEY:
		keys, ivs := material(mickey.KeySize, mickey.MaxIVBits/8)
		r.eng, err = mickey.NewSlicedVec[bitslice.V64](keys, ivs, mickey.MaxIVBits)
	case GRAIN:
		r.eng, err = grain.NewSlicedVec[bitslice.V64](material(grain.KeySize, grain.IVSize))
		r.one = grain.Segment
	case AESCTR:
		r.eng, err = aes.NewSlicedCTRVec[bitslice.V64](material(16, 8))
		r.one = aes.Segment
	case TRIVIUM:
		r.eng, err = trivium.NewSlicedVec[bitslice.V64](material(trivium.KeySize, trivium.IVSize))
		r.one = trivium.Segment
	case XORGENS:
		r.eng, err = xorgens.NewSlicedVec[bitslice.V64](material(xorgens.KeySize, xorgens.IVSize))
		r.one = xorgens.Segment
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", alg)
	}
	if err != nil {
		return nil, err
	}
	r.oneMax = oneMaxFor(alg, aes.HasAESNI)
	r.stale = false // the constructor loaded what keyLanes derived
	backing := make([]byte, passBytes)
	for l := range r.priv {
		r.priv[l] = backing[l*SegmentBytes : (l+1)*SegmentBytes]
	}
	r.dst = r.priv
	return r, nil
}

// oneMaxFor is the one-lane rule (DESIGN.md §12.5), which run applies
// on every datapath: the largest run of lanes alg's engine serves one
// lane at a time instead of by a 64-lane pass, 0 for none; passLanes
// means every run, library passes included. Each is set from measured
// costs so that that many one-lane segments cost less than one pass
// (go test -bench 'Segment' in the engine's package against -bench
// ReadWindowPass in this one). aesni says whether aes.Segment runs on
// AES-NI or on the scalar cipher.
func oneMaxFor(alg Algorithm, aesni bool) int {
	switch alg.Base() {
	case AESCTR:
		if aesni {
			return passLanes // under 1 µs a segment against a 0.8–1.1 ms pass
		}
		return 13 // scalar cipher: about 87 µs a segment against 1.15 ms
	case XORGENS:
		return passLanes // under 2 µs against 90–130 µs
	case TRIVIUM:
		return 16 // 64-clock steps: 2.3–3.6 µs against 60–100 µs
	case GRAIN:
		return 9 // 16-clock steps: about 34 µs against 320 µs
	}
	return 0 // MICKEY: a scalar segment costs about a whole pass
}

// key derives lane l's material for segment seg of (seed, domain); the
// next run loads it.
func (r *passRunner) key(l int, seed, domain, seg uint64) {
	r.mat.deriveLane(l, seed, domain, seg)
	if r.x0s != nil {
		r.x0s[l] = chaoticX0(seed, domain, seg)
	}
	r.stale = true
}

// aim points lane l's next segment at dst, which takes bytes
// [within, within+len(dst)) of it. A whole segment is written straight
// into dst. A part goes to the lane's private buffer, which the owner
// copies from at within; a one-lane run writes it only as far as dst
// reaches. A lane not aimed writes its whole private buffer.
func (r *passRunner) aim(l int, dst []byte, within int) {
	if len(dst) == SegmentBytes {
		r.dst[l] = dst
	} else {
		r.dst[l] = r.priv[l][:(within+len(dst)+7)&^7] // chaotic.Post takes whole words
	}
}

// run serves lanes [0, n), each keyed since the last run, and aims every
// lane back at its private buffer. It reports whether the lanes ran one
// at a time: at most oneMax lanes each run the engine's one-lane
// function on their own material, as far as their destination reaches;
// more run one 64-lane pass, which loads the material if a lane was
// keyed since the last load and writes whole segments. Lanes past n
// repeat stale material in a pass; their output is discarded.
func (r *passRunner) run(n int) (oneLane bool) {
	if oneLane = n <= r.oneMax; oneLane {
		for l := range n {
			r.one(r.mat.keys[l], r.mat.ivs[l], r.dst[l])
		}
	} else {
		if r.stale {
			r.eng.Rekey(r.mat.keys, r.mat.ivs)
			r.stale = false
		}
		for l := range n {
			if len(r.dst[l]) != SegmentBytes {
				r.dst[l] = r.priv[l]
			}
		}
		r.eng.Fill(&r.dst)
	}
	if r.x0s != nil {
		for l := range n {
			chaotic.Post(r.dst[l], r.x0s[l])
		}
	}
	r.dst = r.priv
	return oneLane
}

// EnginePass returns one bitsliced pass of alg's engine: each call
// reloads the 64 lanes' material (Rekey) and fills 64 segments into
// private buffers (Fill), whatever the one-lane rule says, with no
// chaotic post-processing. n is the bytes one call writes. E9's
// bitsliced rows (BenchmarkCPUThroughput, cmd/experiments -exp cpu)
// time it beside the library rows, which read through a Generator.
func EnginePass(alg Algorithm) (pass func(), n int, err error) {
	r, err := newPassRunner(alg, func(r *passRunner) {
		for l := range passLanes {
			r.key(l, 1, 0, uint64(l))
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return func() {
		r.eng.Rekey(r.mat.keys, r.mat.ivs)
		r.eng.Fill(&r.priv)
	}, passBytes, nil
}
