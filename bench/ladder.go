package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/aes"
	"repro/internal/bitslice"
	"repro/internal/chaotic"
	"repro/internal/core"
	"repro/internal/grain"
	"repro/internal/health"
	"repro/internal/mickey"
	"repro/internal/trivium"
	"repro/internal/xorgens"
)

// ladderReps is how many timed repetitions each ladder cell takes; the
// cell reports their median.
const ladderReps = 5

// passBytes is one 64-lane pass: 64 segments of core.SegmentBytes.
const passBytes = 64 * core.SegmentBytes

// perCall returns the median time of one call to f. Calls are batched
// so one repetition lasts about rep and the clock is read rarely.
func perCall(rep time.Duration, f func()) time.Duration {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		el := time.Since(t0)
		if el >= rep/4 || n >= 1<<24 {
			n = max(1, int(float64(n)*float64(rep)/float64(max(el, 1))))
			break
		}
		n *= 2
	}
	per := make([]float64, ladderReps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return time.Duration(median(per))
}

// mbps converts bytes per call to MB/s.
func mbps(bytes int, per time.Duration) float64 { return float64(bytes) / per.Seconds() / 1e6 }

// cipherCell is one bitsliced engine at 64 lanes, keyed from the seed.
type cipherCell struct {
	name       string
	blockBytes int
	block      func()               // one clock-and-transpose block (aes: one CTR batch)
	keystream  func([][]byte) error // one pass into per-lane buffers
	reseed     func() error         // rekey all lanes
}

// material derives per-lane key and IV strings from seed.
func material(seed uint64, keyLen, ivLen int) (keys, ivs [][]byte) {
	d := draw{s: seed}
	fill := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(d.next())
		}
		return b
	}
	for l := 0; l < core.DefaultLanes; l++ {
		keys = append(keys, fill(keyLen))
		ivs = append(ivs, fill(ivLen))
	}
	return keys, ivs
}

func ciphers(seed uint64) ([]cipherCell, error) {
	var blk [64]bitslice.V64
	var cells []cipherCell

	mk, mi := material(seed, mickey.KeySize, mickey.MaxIVBits/8)
	m, err := mickey.NewSlicedVec[bitslice.V64](mk, mi, mickey.MaxIVBits)
	if err != nil {
		return nil, err
	}
	cells = append(cells, cipherCell{"mickey", 512, func() { m.KeystreamBlockVec(&blk) }, m.Keystream,
		func() error { return m.Reseed(mk, mi, mickey.MaxIVBits) }})

	gk, gi := material(seed, grain.KeySize, grain.IVSize)
	g, err := grain.NewSlicedVec[bitslice.V64](gk, gi)
	if err != nil {
		return nil, err
	}
	cells = append(cells, cipherCell{"grain", 512, func() { g.KeystreamBlockVec(&blk) }, g.Keystream,
		func() error { return g.Reseed(gk, gi) }})

	ak, an := material(seed, 16, 8)
	a, err := aes.NewSlicedCTRVec[bitslice.V64](ak, an)
	if err != nil {
		return nil, err
	}
	batch := make([]byte, aes.BatchSize)
	cells = append(cells, cipherCell{"aes", aes.BatchSize, func() { a.NextBatch(batch) }, a.Keystream,
		func() error { return a.Reseed(ak, an) }})

	tk, ti := material(seed, trivium.KeySize, trivium.IVSize)
	t, err := trivium.NewSlicedVec[bitslice.V64](tk, ti)
	if err != nil {
		return nil, err
	}
	cells = append(cells, cipherCell{"trivium", 512, func() { t.KeystreamBlockVec(&blk) }, t.Keystream,
		func() error { return t.Reseed(tk, ti) }})

	xk, xi := material(seed, xorgens.KeySize, xorgens.IVSize)
	x, err := xorgens.NewSlicedVec[bitslice.V64](xk, xi)
	if err != nil {
		return nil, err
	}
	cells = append(cells, cipherCell{"xorgens", 512, func() { x.KeystreamBlockVec(&blk) }, x.Keystream,
		func() error { return x.Reseed(xk, xi) }})
	return cells, nil
}

// cipherOf names the cipher behind a served algorithm.
func cipherOf(alg core.Algorithm) string {
	if alg.Base() == core.AESCTR {
		return "aes"
	}
	return alg.Base().String()
}

// ladder measures the library layers one at a time, at 64 lanes and on
// one goroutine (the w2 stream cell aside), bottom up: transpose, cipher
// block, keystream pass, rekey, chaotic post, health check, then the
// core generator, stream and addressed-window paths per algorithm.
func ladder(seed uint64, rep time.Duration) (metricSet, error) {
	m := metricSet{}
	var err error
	fail := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}

	var planes [64]bitslice.V64
	for i := range planes {
		planes[i] = bitslice.V64{uint64(i) * 0x9E3779B97F4A7C15}
	}
	tp := perCall(rep, func() { bitslice.TransposeVec(&planes) })
	m.set("bitslice.transpose_ns", "ns", float64(tp), ladderReps)

	cells, e := ciphers(seed)
	if e != nil {
		return nil, e
	}
	bufs := make([][]byte, core.DefaultLanes)
	for l := range bufs {
		bufs[l] = make([]byte, core.SegmentBytes)
	}
	keystream := map[string]time.Duration{} // one pass
	reseed := map[string]time.Duration{}
	for _, c := range cells {
		keystream[c.name] = perCall(rep, func() { fail(c.keystream(bufs)) })
		reseed[c.name] = perCall(rep, func() { fail(c.reseed()) })
		ks, rs := keystream[c.name], reseed[c.name]
		m.set(c.name+".block_mbps", "MB/s", mbps(c.blockBytes, perCall(rep, c.block)), ladderReps)
		m.set(c.name+".keystream_mbps", "MB/s", mbps(passBytes, ks), ladderReps)
		m.set(c.name+".reseed_us", "us", float64(rs)/1e3, ladderReps)
		m.set(c.name+".rekey_share", "ratio", float64(rs)/float64(rs+ks), ladderReps)
	}

	seg := make([]byte, core.SegmentBytes)
	gen, e := core.NewGenerator(core.TRIVIUM, seed)
	if e != nil {
		return nil, e
	}
	gen.Read(seg)
	post := perCall(rep, func() { chaotic.Post(seg, seed) })
	m.set("chaotic.post_mbps", "MB/s", mbps(len(seg), post), ladderReps)
	healthy := make([]byte, core.SegmentBytes)
	gen.Read(healthy)
	checker := health.NewChecker(health.Config{})
	m.set("health.check_mbps", "MB/s", mbps(len(healthy), perCall(rep, func() { fail(checker.Check(healthy)) })), ladderReps)

	buf := make([]byte, libOpBytes)
	for a, alg := range algs {
		label := algLabel(a)
		g, e := core.NewGeneratorLanes(alg, seed, core.DefaultLanes)
		if e != nil {
			return nil, e
		}
		segPer := perCall(rep, func() { g.Read(buf) })
		m.set("core.segment_mbps."+label, "MB/s", mbps(len(buf), segPer), ladderReps)
		// The share of a pass that keystream, rekey and post-processing
		// do not explain: transposes outside Keystream, copies, and the
		// segment bookkeeping.
		explained := keystream[cipherOf(alg)] + reseed[cipherOf(alg)]
		if alg.IsChaotic() {
			explained += post * 64
		}
		perPass := float64(segPer) * passBytes / float64(len(buf))
		m.set("core.segment_gap_share."+label, "ratio", 1-float64(explained)/perPass, ladderReps)

		for _, cell := range []struct {
			name    string
			workers int
			health  bool
		}{{"core.stream_mbps." + label + ".w1", 1, false}, {"core.stream_mbps." + label + ".w2", 2, false},
			{"core.stream_health_mbps." + label, 1, true}} {
			v, e := streamRate(alg, seed, cell.workers, cell.health, rep)
			fail(e)
			m.set(cell.name, "MB/s", v, ladderReps)
		}

		// A mid-segment offset, so the reader seeks, rekeys and skips.
		off := uint64(1000*core.SegmentBytes + 777)
		for _, n := range []int{4 << 10, 64 << 10} {
			per := perCall(rep, func() {
				r, e := core.NewSegmentReader(alg, seed, 1, core.DefaultLanes, off)
				if e == nil {
					_, e = io.ReadFull(r, buf[:n])
				}
				fail(e)
			})
			m.set(fmt.Sprintf("core.window_us.%s.n%dk", label, n>>10), "us", float64(per)/1e3, ladderReps)
		}
	}
	return m, err
}

// streamRate is the MB/s of 1 MiB WriteTo calls on a 64-lane stream.
func streamRate(alg core.Algorithm, seed uint64, workers int, withHealth bool, rep time.Duration) (float64, error) {
	cfg := core.StreamConfig{Workers: workers, Lanes: core.DefaultLanes}
	if withHealth {
		cfg.Health = health.NewChecker(health.Config{}).Check
	}
	s, err := core.NewStream(alg, seed, cfg)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	op := func() {
		sink := budgetSink{left: libOpBytes}
		if _, e := s.WriteTo(&sink); !errors.Is(e, errBudgetSpent) && err == nil {
			err = e
		}
	}
	op() // fill the staging pipeline first
	return mbps(libOpBytes, perCall(rep, op)), err
}
