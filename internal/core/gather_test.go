package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aes"
)

// segmentReaderWindow is the reference for every gathered window: the
// same bytes read through a freshly positioned NewSegmentReader.
func segmentReaderWindow(t testing.TB, alg Algorithm, seed, domain, offset uint64, n int) []byte {
	t.Helper()
	r, err := NewSegmentReader(alg, seed, domain, 0, offset)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, n)
	if _, err := io.ReadFull(r, want); err != nil {
		t.Fatal(err)
	}
	return want
}

// A gathered window is byte-identical to the SegmentReader window at the
// same address, for every served algorithm and for windows that start
// and end mid-segment, span more than one pass, or share a segment.
func TestWindowSourceMatchesSegmentReader(t *testing.T) {
	windows := []struct {
		domain, offset uint64
		n              int
	}{
		{0, 0, 1},
		{1, 777, 4096},
		{1, 777, 100},                       // same segment as the window above
		{3, 5 * SegmentBytes, SegmentBytes}, // one whole segment, filled in place
		{2, 1000*SegmentBytes + 2047, 2},    // straddles a segment boundary
		{9, 12345, 70 * SegmentBytes},       // more than one pass of demands
	}
	for _, alg := range ServedAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			ws, err := NewWindowSource(alg, 21, nil)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			got := make([][]byte, len(windows))
			errs := make([]error, len(windows))
			for i, w := range windows {
				got[i] = make([]byte, w.n)
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = ws.ReadWindow(got[i], windows[i].domain, windows[i].offset)
				}(i)
			}
			wg.Wait()
			for i, w := range windows {
				if errs[i] != nil {
					t.Fatalf("window %d: %v", i, errs[i])
				}
				if want := segmentReaderWindow(t, alg, 21, w.domain, w.offset, w.n); !bytes.Equal(got[i], want) {
					t.Errorf("window %d (domain %d, offset %d, n %d) diverges from NewSegmentReader", i, w.domain, w.offset, w.n)
				}
			}
		})
	}
}

func TestWindowSourceRejectsOutOfRange(t *testing.T) {
	ws, err := NewWindowSource(GRAIN, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.ReadWindow(make([]byte, 8), 0, maxSegmentIndex*SegmentBytes-4); err == nil {
		t.Error("window past the last addressable segment accepted")
	}
	if err := ws.ReadWindow(make([]byte, 8), 0, ^uint64(0)-3); err == nil {
		t.Error("wrapping window accepted")
	}
	if err := ws.ReadWindow(nil, 0, ^uint64(0)); err != nil {
		t.Errorf("empty window: %v", err)
	}
	if _, err := NewWindowSource(Algorithm(99), 1, nil); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// Concurrent windows share passes: with the first pass held until all
// eight callers are queued, eight 8 KiB windows (four or five segments
// each) take one pass instead of eight — and each caller still gets its
// own bytes.
func TestWindowSourceSharesPasses(t *testing.T) {
	const callers = 8
	var passes, lanes atomic.Int64
	ws, err := NewWindowSource(TRIVIUM, 4, func(n int, _ bool) {
		passes.Add(1)
		lanes.Add(int64(n))
	})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	ws.testHookPass = func() {
		once.Do(func() {
			deadline := time.Now().Add(10 * time.Second)
			for {
				ws.mu.Lock()
				queued := len(ws.pending)
				ws.mu.Unlock()
				if queued == callers || time.Now().After(deadline) {
					return
				}
				time.Sleep(time.Millisecond)
			}
		})
	}

	var wg sync.WaitGroup
	got := make([][]byte, callers)
	for i := range got {
		got[i] = make([]byte, 8<<10)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ws.ReadWindow(got[i], uint64(i), uint64(i)*1000); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if p := passes.Load(); p >= callers {
		t.Fatalf("%d concurrent windows ran %d passes, want fewer than %d", callers, p, callers)
	}
	if l := lanes.Load(); l < callers*4 || l > callers*5 {
		t.Errorf("passes served %d lanes, want one per touched segment (%d..%d)", l, callers*4, callers*5)
	}
	for i := range got {
		if !bytes.Equal(got[i], segmentReaderWindow(t, TRIVIUM, 4, uint64(i), uint64(i)*1000, len(got[i]))) {
			t.Errorf("caller %d got the wrong window", i)
		}
	}
	if ws.running || len(ws.pending) != 0 {
		t.Error("source left a running pass or pending demands behind")
	}
}

// The caller that runs the next pass changes constantly when callers
// issue windows back to back: whole passes (as bsrngd's pooled refills
// read them) mixed with small windows. Successive passes share the
// source's slots and lane buffers one after the other, never at once,
// and every window comes back byte-identical. Runs under -race in CI.
func TestWindowSourceLeaderTurnover(t *testing.T) {
	const callers, reads = 8, 24
	type window struct {
		domain, offset uint64
		want           []byte
	}
	windows := make([][]window, callers)
	for c := range windows {
		for i := range reads {
			// Even callers read whole passes, as bsrngd's pooled
			// refills do; odd callers read small windows.
			domain, offset, n := uint64(c%2), uint64(c*1000003+i*4099), 1+(c*37+i*101)%3000
			if c%2 == 0 {
				offset, n = uint64(c*reads+i)*64*SegmentBytes, 64*SegmentBytes
			}
			windows[c] = append(windows[c], window{domain, offset, segmentReaderWindow(t, TRIVIUM, 3, domain, offset, n)})
		}
	}
	ws, err := NewWindowSource(TRIVIUM, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := range windows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, w := range windows[c] {
				p := make([]byte, len(w.want))
				if err := ws.ReadWindow(p, w.domain, w.offset); err != nil || !bytes.Equal(p, w.want) {
					t.Errorf("caller %d window %d: %v or wrong bytes", c, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A warm window read allocates nothing: the call is queued by value in
// the source's pending queue, a pass runs in the source's own lane
// buffers, a one-lane segment runs on the stack, and keying a lane
// derives its material in place. An 8 KiB window is one sparse batch (one lane at a
// time where the engine has a one-lane function); a 65-segment window
// fills a 64-lane batch, which trivium serves by the pass.
func TestWindowSourceReadAllocs(t *testing.T) {
	for _, alg := range ServedAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			for _, n := range []int{8 << 10, 65 * SegmentBytes} {
				t.Run(fmt.Sprint(n), func(t *testing.T) {
					ws, err := NewWindowSource(alg, 8, nil)
					if err != nil {
						t.Fatal(err)
					}
					buf := make([]byte, n)
					off := uint64(3*SegmentBytes + 5)
					if err := ws.ReadWindow(buf, 1, off); err != nil {
						t.Fatal(err)
					}
					if avg := testing.AllocsPerRun(10, func() {
						off += uint64(len(buf))
						ws.ReadWindow(buf, 1, off)
					}); avg != 0 {
						t.Fatalf("warm %d-byte window read allocates %.1f times, want 0", n, avg)
					}
				})
			}
		})
	}
}

// A cold window read allocates nothing either: the first read on a
// fresh source finds the pending queue built with room for a pass's
// worth of callers, and completion is counted, not recorded per call.
// AllocsPerRun warms up with one run of its own, so each run reads
// through its own prebuilt fresh source.
func TestWindowSourceColdReadAllocs(t *testing.T) {
	const runs = 4
	for _, alg := range ServedAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			for _, n := range []int{8 << 10, 65 * SegmentBytes} {
				t.Run(fmt.Sprint(n), func(t *testing.T) {
					fresh := make([]*WindowSource, runs+1)
					for i := range fresh {
						ws, err := NewWindowSource(alg, 8, nil)
						if err != nil {
							t.Fatal(err)
						}
						fresh[i] = ws
					}
					buf := make([]byte, n)
					if avg := testing.AllocsPerRun(runs, func() {
						fresh[0].ReadWindow(buf, 1, 3*SegmentBytes+5)
						fresh = fresh[1:]
					}); avg != 0 {
						t.Fatalf("cold %d-byte window read allocates %.1f times, want 0", n, avg)
					}
				})
			}
		})
	}
}

// Demands are served in the order they were queued, which is what lets
// a caller count its window complete: with the first pass held until
// both are queued, caller A's 70 segments and then caller B's one take
// two batches, A's first 64 demands and then A's last 6 followed by B's.
// B does not return before the second batch ends.
func TestWindowSourceServesInQueueOrder(t *testing.T) {
	type demand struct{ domain, seg uint64 }
	var (
		mu      sync.Mutex
		batches [][]demand
		events  []string
	)
	logEvent := func(e string) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	var ws *WindowSource
	ws, err := NewWindowSource(GRAIN, 6, func(n int, _ bool) {
		// The pass owns the slots until it ends, so they still name the
		// batch's demands here.
		var b []demand
		for _, s := range ws.slots[:n] {
			b = append(b, demand{s.domain, s.seg})
		}
		mu.Lock()
		batches = append(batches, b)
		mu.Unlock()
		logEvent(fmt.Sprint("batch ", len(batches)))
	})
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan struct{})
	var once sync.Once
	ws.testHookPass = func() {
		once.Do(func() {
			close(held)
			deadline := time.Now().Add(10 * time.Second)
			for {
				ws.mu.Lock()
				queued := len(ws.pending)
				ws.mu.Unlock()
				if queued == 2 || time.Now().After(deadline) {
					return
				}
				time.Sleep(time.Millisecond)
			}
		})
	}

	a, b := make([]byte, 70*SegmentBytes), make([]byte, 100)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := ws.ReadWindow(a, 1, 0); err != nil {
			t.Error(err)
		}
		logEvent("A returned")
	}()
	<-held
	go func() {
		defer wg.Done()
		if err := ws.ReadWindow(b, 2, 5*SegmentBytes+7); err != nil {
			t.Error(err)
		}
		logEvent("B returned")
	}()
	wg.Wait()

	var want1, want2 []demand
	for seg := range uint64(64) {
		want1 = append(want1, demand{1, seg})
	}
	for seg := uint64(64); seg < 70; seg++ {
		want2 = append(want2, demand{1, seg})
	}
	want2 = append(want2, demand{2, 5})
	if len(batches) != 2 || !slices.Equal(batches[0], want1) || !slices.Equal(batches[1], want2) {
		t.Fatalf("batches %v, want A's segments 0..63, then A's 64..69 and B's", batches)
	}
	if i := slices.Index(events, "B returned"); i < slices.Index(events, "batch 2") {
		t.Errorf("events %v: B returned before the batch that serves it ended", events)
	}
	if !bytes.Equal(a, segmentReaderWindow(t, GRAIN, 6, 1, 0, len(a))) ||
		!bytes.Equal(b, segmentReaderWindow(t, GRAIN, 6, 2, 5*SegmentBytes+7, len(b))) {
		t.Error("a window diverges from NewSegmentReader")
	}
}

// oneLaneAlgs are the algorithms whose engine has a one-lane function:
// every engine but MICKEY's, and their chaotic modes.
var oneLaneAlgs = []Algorithm{
	GRAIN, AESCTR, TRIVIUM, XORGENS,
	Chaotic(GRAIN), Chaotic(AESCTR), Chaotic(TRIVIUM), Chaotic(XORGENS),
}

// Exactly the oneLaneAlgs have a one-lane function, and a batch takes
// the one-lane path exactly when it holds at most oneMax demands:
// a 4 KiB window (3 segments) and a 70-segment window (a full batch of
// 64, then 6) are served as the engine's crossover says, and both come
// back byte-identical.
func TestWindowSourceOneLaneRule(t *testing.T) {
	for _, base := range Algorithms {
		for _, alg := range []Algorithm{base, Chaotic(base)} {
			t.Run(alg.String(), func(t *testing.T) {
				var batches []bool
				ws, err := NewWindowSource(alg, 12, func(_ int, oneLane bool) { batches = append(batches, oneLane) })
				if err != nil {
					t.Fatal(err)
				}
				if has := ws.r.one != nil; has != slices.Contains(oneLaneAlgs, alg) {
					t.Fatalf("one-lane function present = %v", has)
				}
				if ws.r.oneMax > 0 && ws.r.one == nil {
					t.Fatalf("oneMax %d without a one-lane function", ws.r.oneMax)
				}
				for _, w := range []struct {
					offset uint64
					n      int
					want   []bool
				}{
					{777, 4096, []bool{3 <= ws.r.oneMax}},
					{5*SegmentBytes + 1, 69*SegmentBytes + 1, []bool{64 <= ws.r.oneMax, 6 <= ws.r.oneMax}},
				} {
					batches = nil
					p := make([]byte, w.n)
					if err := ws.ReadWindow(p, 2, w.offset); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(batches, w.want) {
						t.Errorf("window at %d, n %d: one-lane batches %v, want %v", w.offset, w.n, batches, w.want)
					}
					if !bytes.Equal(p, segmentReaderWindow(t, alg, 12, 2, w.offset, w.n)) {
						t.Errorf("window at %d, n %d diverges from NewSegmentReader", w.offset, w.n)
					}
				}
			})
		}
	}
}

// The one-lane rule per engine: every engine with a one-lane function
// has a crossover between 1 and 64 demands, chaotic modes share their
// base's, and only AES-CTR's depends on the CPU. With AES-NI it takes
// every batch; on the scalar cipher it has its own, smaller crossover.
// MICKEY always runs the pass.
func TestOneMaxFor(t *testing.T) {
	for _, base := range Algorithms {
		for _, alg := range []Algorithm{base, Chaotic(base)} {
			hw, sw := oneMaxFor(alg, true), oneMaxFor(alg, false)
			if hw != oneMaxFor(base, true) || sw != oneMaxFor(base, false) {
				t.Errorf("%v: crossover %d/%d differs from its base's", alg, hw, sw)
			}
			if hw < 0 || hw > passLanes || sw < 0 || sw > passLanes {
				t.Errorf("%v: crossover %d/%d outside [0, %d]", alg, hw, sw, passLanes)
			}
			if has := slices.Contains(oneLaneAlgs, alg); has != (hw > 0) || has != (sw > 0) {
				t.Errorf("%v: crossover %d/%d, want positive exactly for the one-lane engines", alg, hw, sw)
			}
			if base != AESCTR && hw != sw {
				t.Errorf("%v: crossover depends on AES-NI (%d/%d)", alg, hw, sw)
			}
		}
	}
	if hw, sw := oneMaxFor(AESCTR, true), oneMaxFor(AESCTR, false); hw != passLanes || sw >= passLanes {
		t.Errorf("aes-ctr crossover %d with AES-NI and %d without, want %d and a smaller one", hw, sw, passLanes)
	}
}

// With the one-lane path turned off, AES-CTR and xorgens windows run the
// 64-lane bitsliced pass: what a CPU without AES-NI serves for AES-CTR
// batches above its crossover, and what no datapath serves for xorgens.
// It stays byte-identical to the library's one-lane reads, so the pass
// keeps its coverage on AES-NI hosts.
func TestWindowSourceAESPassFallback(t *testing.T) {
	for _, alg := range []Algorithm{AESCTR, Chaotic(AESCTR), XORGENS, Chaotic(XORGENS)} {
		passes := 0
		ws, err := NewWindowSource(alg, 14, func(_ int, oneLane bool) {
			if oneLane {
				t.Errorf("%v: a batch ran one lane at a time with the one-lane path off", alg)
			}
			passes++
		})
		if err != nil {
			t.Fatal(err)
		}
		ws.r.oneMax = 0
		for _, w := range []struct {
			offset uint64
			n      int
		}{{0, 1}, {777, 4096}, {3 * SegmentBytes, 64 * SegmentBytes}} {
			p := make([]byte, w.n)
			if err := ws.ReadWindow(p, 5, w.offset); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p, segmentReaderWindow(t, alg, 14, 5, w.offset, w.n)) {
				t.Errorf("%v: pass-path window at %d, n %d diverges from NewSegmentReader", alg, w.offset, w.n)
			}
		}
		if passes != 3 {
			t.Errorf("%v: %d passes, want 3", alg, passes)
		}
	}
}

// fillCounter counts the bitsliced passes of the engine it wraps.
type fillCounter struct {
	cipher
	fills int
}

func (c *fillCounter) Fill(bufs *[passLanes][]byte) {
	c.fills++
	c.cipher.Fill(bufs)
}

// The library obeys the one-lane rule the window source does: a
// Generator read of a whole pass and the first chunk of a 1-worker
// Stream run the bitsliced pass exactly when the engine's crossover is
// below a full pass (MICKEY, grain, trivium, and AES-CTR without
// AES-NI), and one lane at a time otherwise. The chunk is read from the
// engine a 1-worker Stream's worker drives, and its bytes are the
// Stream's.
func TestLibraryFollowsOneLaneRule(t *testing.T) {
	for _, alg := range ServedAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			wantFills := 0
			if oneMaxFor(alg, aes.HasAESNI) < passLanes {
				wantFills = 1
			}
			g, err := NewGenerator(alg, 3)
			if err != nil {
				t.Fatal(err)
			}
			gc := &fillCounter{cipher: g.r.eng}
			g.r.eng = gc
			g.Read(make([]byte, passBytes))
			if gc.fills != wantFills {
				t.Errorf("Generator read of one pass: %d bitsliced fills, want %d", gc.fills, wantFills)
			}

			const staging = 16 * SegmentBytes
			e, err := newSegmented(alg, 3, 1, 0, staging/SegmentBytes, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			ec := &fillCounter{cipher: e.r.eng}
			e.r.eng = ec
			chunk := make([]byte, staging)
			e.read(chunk)
			if ec.fills != wantFills {
				t.Errorf("Stream chunk: %d bitsliced fills, want %d", ec.fills, wantFills)
			}
			s, err := NewStream(alg, 3, StreamConfig{Workers: 1, StagingBytes: staging})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			want := make([]byte, staging)
			if _, err := io.ReadFull(s, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(chunk, want) {
				t.Error("the worker engine's chunk diverges from the Stream's")
			}
		})
	}
}

// FuzzOneLaneMatchesPass holds every one-lane function, chaotic modes
// included, to the 64-lane bitsliced pass: for a fuzzer-chosen seed,
// domain and segment, the whole segment and a part of it served by a
// one-lane run equal the lane bytes a NewSegmentReader forced onto the
// pass reads.
func FuzzOneLaneMatchesPass(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0), uint16(0), uint16(2048))
	f.Add(uint64(0xDEADBEEF), uint64(7), uint64(1<<40), uint16(777), uint16(100))
	f.Add(^uint64(0), ^uint64(0), maxSegmentIndex-1, uint16(2047), uint16(1))
	runners := make([]*passRunner, len(oneLaneAlgs))
	for i, alg := range oneLaneAlgs {
		ws, err := NewWindowSource(alg, 0, nil)
		if err != nil {
			f.Fatal(err)
		}
		runners[i] = ws.r
	}
	f.Fuzz(func(t *testing.T, seed, domain, seg uint64, within, n uint16) {
		seg %= maxSegmentIndex
		w := int(within) % SegmentBytes
		k := 1 + int(n)%(SegmentBytes-w)
		whole, part := make([]byte, SegmentBytes), make([]byte, k)
		for i, alg := range oneLaneAlgs {
			r := runners[i]
			r.key(0, seed, domain, seg)
			r.aim(0, whole, 0)
			if !r.run(1) {
				t.Fatalf("%v: a run of one lane took the pass", alg)
			}
			r.key(0, seed, domain, seg)
			r.aim(0, part, w)
			r.run(1)
			copy(part, r.priv[0][w:])

			pass, err := NewSegmentReader(alg, seed, domain, 0, seg*SegmentBytes)
			if err != nil {
				t.Fatal(err)
			}
			pass.r.oneMax = 0
			want := make([]byte, SegmentBytes)
			pass.Read(want)
			if !bytes.Equal(whole, want) {
				t.Fatalf("%v: one-lane segment %d (seed %#x, domain %d) diverges from the pass", alg, seg, seed, domain)
			}
			if !bytes.Equal(part, want[w:w+k]) {
				t.Fatalf("%v: one-lane bytes [%d, %d) of segment %d diverge from the pass", alg, w, w+k, seg)
			}
		}
	})
}

// BenchmarkReadWindow times one warm 4 KiB window per algorithm: three
// segment demands, served one lane at a time where the engine has a
// one-lane function and the crossover admits it, else by a 64-lane
// pass.
func BenchmarkReadWindow(b *testing.B) { benchReadWindow(b, true) }

// BenchmarkReadWindowPass times the same window with the one-lane path
// off, so every read runs one 64-lane pass: the cost a one-lane
// crossover (oneMaxFor) is set against.
func BenchmarkReadWindowPass(b *testing.B) { benchReadWindow(b, false) }

func benchReadWindow(b *testing.B, oneLane bool) {
	for _, alg := range ServedAlgorithms {
		b.Run(alg.String(), func(b *testing.B) {
			ws, err := NewWindowSource(alg, 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			if !oneLane {
				ws.r.oneMax = 0
			}
			p := make([]byte, 4<<10)
			b.SetBytes(int64(len(p)))
			off := uint64(777)
			for b.Loop() {
				ws.ReadWindow(p, 3, off)
				off += 1 << 20
			}
		})
	}
}

// FuzzGatheredWindows reads a fuzzer-chosen set of windows concurrently
// through gathered sources and checks each against NewSegmentReader.
// Each 12-byte record of raw is one window: algorithm, domain, offset
// and length.
func FuzzGatheredWindows(f *testing.F) {
	rec := func(alg, domain byte, offset uint64, n uint16) []byte {
		b := []byte{alg, domain}
		b = binary.LittleEndian.AppendUint64(b, offset)
		return binary.LittleEndian.AppendUint16(b, n)
	}
	cat := func(rs ...[]byte) []byte { return bytes.Join(rs, nil) }
	f.Add(uint64(1), cat(rec(1, 0, 0, 4096)))
	f.Add(uint64(2), cat(rec(3, 1, 777, 8192), rec(3, 1, 2047, 3), rec(3, 2, 777, 8192)))
	f.Add(uint64(3), cat(rec(2, 0, 64*SegmentBytes-1, 4000), rec(5, 7, 1<<40, 2048), rec(4, 3, 0, 1)))

	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		type window struct {
			alg            Algorithm
			domain, offset uint64
			p              []byte
		}
		var windows []window
		for len(raw) >= 12 && len(windows) < 8 {
			n := int(binary.LittleEndian.Uint16(raw[10:]))%(16<<10) + 1
			windows = append(windows, window{
				alg:    ServedAlgorithms[int(raw[0])%len(ServedAlgorithms)],
				domain: uint64(raw[1] % 4),
				offset: binary.LittleEndian.Uint64(raw[2:]) % (maxSegmentIndex*SegmentBytes - uint64(n)),
				p:      make([]byte, n),
			})
			raw = raw[12:]
		}
		sources := map[Algorithm]*WindowSource{}
		for _, w := range windows {
			if sources[w.alg] == nil {
				ws, err := NewWindowSource(w.alg, seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				sources[w.alg] = ws
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, len(windows))
		for i := range windows {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				w := windows[i]
				errs[i] = sources[w.alg].ReadWindow(w.p, w.domain, w.offset)
			}(i)
		}
		wg.Wait()
		for i, w := range windows {
			if errs[i] != nil {
				t.Fatalf("window %d: %v", i, errs[i])
			}
			if !bytes.Equal(w.p, segmentReaderWindow(t, w.alg, seed, w.domain, w.offset, len(w.p))) {
				t.Fatalf("window %d (%v, domain %d, offset %d, n %d) diverges from NewSegmentReader",
					i, w.alg, w.domain, w.offset, len(w.p))
			}
		}
	})
}

// FuzzParseAlgorithm: any name ParseAlgorithm accepts renders through
// String to a canonical name that parses back to the same algorithm and
// is its own canonical form; no input panics.
func FuzzParseAlgorithm(f *testing.F) {
	for _, s := range []string{"mickey", " AES ", "aes-ctr", "Chaotic(Trivium)", "chaotic(chaotic(grain))", "chaotic(", "xorgens)", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		alg, err := ParseAlgorithm(s)
		if err != nil {
			return
		}
		name := alg.String()
		back, err := ParseAlgorithm(name)
		if err != nil {
			t.Fatalf("%q parses to %v, whose name %q does not parse: %v", s, alg, name, err)
		}
		if back != alg || back.String() != name {
			t.Fatalf("%q → %v → %q → %v: round trip changed the algorithm", s, alg, name, back)
		}
	})
}
