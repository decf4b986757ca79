package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// ErrClosed is returned by Stream.Read once Close has been observed.
var ErrClosed = errors.New("core: stream closed")

// Stream is the multi-core BSRNG: W workers, each owning an independent
// 64-lane bitsliced engine, mirror the paper's CUDA thread blocks. The
// stream is the domain-1 segment stream of the seed — the bytes a
// NewSegmentReader of domain 1 reads from offset 0 — cut into staging
// chunks of spc = max(StagingBytes/SegmentBytes, 1) segments: chunk c
// holds segments [c·spc, (c+1)·spc). Worker w produces the chunks
// c ≡ w (mod W) in private staging buffers (the shared-memory staging of
// §4.5), and the consumer reads the chunks in order of c. So the bytes
// are deterministic for (algorithm, seed), whatever the worker count,
// staging size, read sizes or scheduling.
type Stream struct {
	workers int
	health  func(seg []byte) error

	chunks []chan chunk // per-worker ordered chunk delivery
	free   chan []byte  // recycled buffers
	stop   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once

	cur  []byte // chunk currently being consumed
	pos  int
	next int   // worker whose chunk is consumed next
	err  error // ends the stream once cur is consumed

	healthFailures atomic.Uint64
}

// chunk is one staging chunk on its way to the consumer: its healthy
// segments and, from a worker that hit maxCondemnedRun, the error that
// ends the stream after them.
type chunk struct {
	b   []byte
	err error
}

// StreamStats is a point-in-time snapshot of a Stream's health counter.
type StreamStats struct {
	// HealthFailures counts segments condemned by the configured health
	// hook. Each one was dropped from its chunk, never delivered.
	HealthFailures uint64
}

// Stats returns a snapshot of the stream's counters. It is safe to call
// concurrently with Read and Close.
func (s *Stream) Stats() StreamStats {
	return StreamStats{HealthFailures: s.healthFailures.Load()}
}

// StreamConfig tunes the Stream; zero values select defaults
// (runtime.NumCPU() workers, 64 KiB staging chunks). Workers and
// StagingBytes never change the bytes, only how they are produced.
type StreamConfig struct {
	Workers int
	// StagingBytes is the per-worker chunk size. The paper determines the
	// analogous shared-memory occupancy "by try and error" (§4.5); the
	// BenchmarkStagingAblation bench sweeps it.
	StagingBytes int
	// Lanes is checked (0, 64, 256 or 512) and otherwise ignored: every
	// stream runs the 64-lane datapath. It stays only for bench/, which
	// compiles against it; ROADMAP item 5 removes it together with its
	// bench/ change.
	Lanes int
	// Health, when non-nil, is a continuous online health test run
	// against every SegmentBytes-sized segment at production time, from
	// the producing worker's goroutine (so it must be safe for
	// concurrent use — health.Checker.Check qualifies). A non-nil error
	// condemns the segment: it is dropped from its chunk and counted in
	// StreamStats, so the stream is the domain-1 stream less exactly the
	// condemned segments. After maxCondemnedRun consecutive condemned
	// segments from one worker the stream fails: Read and WriteTo
	// deliver every byte before that point, then return an error
	// wrapping the hook's last error. A nil hook — the default — leaves
	// the hot path untouched.
	Health func(seg []byte) error
}

// maxCondemnedRun is the bound on a broken hook. Healthy output trips
// the default health tests far less than once in 2^40 segments
// (DESIGN.md §8), so this many consecutive condemned segments from one
// worker mean the hook, or the engine, fails everything; the stream then
// ends with the hook's error instead of livelocking the worker.
const maxCondemnedRun = 8

// FailpointSegmentCorrupt is the faultinject site, hit once per
// produced segment (only when a health hook is configured), that
// zeroes the segment when fired — the chaos lever that proves the skip
// path end to end.
const FailpointSegmentCorrupt = "core.segment.corrupt"

// NewStream starts the worker pool. Close must be called to release the
// workers.
func NewStream(alg Algorithm, seed uint64, cfg StreamConfig) (*Stream, error) {
	if cfg.Workers == 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.Workers < 1 || cfg.Workers > 4096 {
		return nil, fmt.Errorf("core: worker count %d out of range", cfg.Workers)
	}
	if cfg.StagingBytes == 0 {
		cfg.StagingBytes = 64 << 10
	}
	if cfg.StagingBytes < 512 {
		return nil, fmt.Errorf("core: staging buffer must be ≥ 512 bytes")
	}
	if err := checkLanes(cfg.Lanes); err != nil {
		return nil, err
	}

	s := &Stream{
		workers: cfg.Workers,
		health:  cfg.Health,
		chunks:  make([]chan chunk, cfg.Workers),
		free:    make(chan []byte, 4*cfg.Workers),
		stop:    make(chan struct{}),
	}
	spc := max(cfg.StagingBytes/SegmentBytes, 1)
	engines := make([]*segmented, cfg.Workers)
	for w := range engines {
		eng, err := newSegmented(alg, seed, 1, 0, uint64(spc), uint64(cfg.Workers), uint64(w))
		if err != nil {
			return nil, err
		}
		engines[w] = eng
		s.chunks[w] = make(chan chunk, 2)
	}
	for w, eng := range engines {
		s.wg.Add(1)
		go s.run(w, eng, spc*SegmentBytes)
	}
	return s, nil
}

// run is one worker: generate a chunk into a staging buffer, screen it,
// deliver, repeat. The engine writes segments straight into the staging
// chunk (nextBlocks aims the cipher's lane buffers at it), so in steady
// state each output byte is produced in place and copied at most once
// more, by the consumer. A worker whose chunk carries an error stops.
func (s *Stream) run(w int, eng *segmented, chunkLen int) {
	defer s.wg.Done()
	condemned := 0 // consecutive condemned segments, across chunks
	for {
		var buf []byte
		select {
		case buf = <-s.free:
		default:
		}
		if cap(buf) < chunkLen {
			buf = make([]byte, chunkLen)
		}
		buf = buf[:chunkLen]
		eng.nextBlocks(buf)
		c := chunk{b: buf}
		if s.health != nil {
			var n int
			n, c.err = Screen(buf, FailpointSegmentCorrupt, s.check, &condemned, maxCondemnedRun)
			c.b = buf[:n]
		}
		select {
		case s.chunks[w] <- c:
		case <-s.stop:
			return
		}
		if c.err != nil {
			return
		}
	}
}

// check runs the health hook on one segment, counting a condemned one.
func (s *Stream) check(seg []byte) error {
	err := s.health(seg)
	if err != nil {
		s.healthFailures.Add(1)
	}
	return err
}

// Screen is the health screen of freshly produced segments, shared by
// Stream workers and bsrngd's pooled sources. Each segment of buf hits
// the failpoint fp, which zeroes it when fired, then check. Condemned
// segments (check errs) are dropped, the healthy ones packed in order at
// the front of buf, and Screen returns their length. *run counts
// consecutive condemned segments across calls; when it reaches stop (0:
// never), Screen ends there with an error wrapping check's.
func Screen(buf []byte, fp string, check func(seg []byte) error, run *int, stop int) (int, error) {
	n := 0
	for off := 0; off < len(buf); off += SegmentBytes {
		seg := buf[off : off+SegmentBytes]
		if faultinject.Hit(fp) {
			clear(seg)
		}
		if err := check(seg); err != nil {
			if *run++; *run == stop {
				return n, fmt.Errorf("core: health check condemned a run of segments: %w", err)
			}
			continue
		}
		*run = 0
		if n != off {
			copy(buf[n:], seg)
		}
		n += SegmentBytes
	}
	return n, nil
}

// Read assembles the deterministic stream. It fails when the Stream is
// closed — a Read racing (or following) Close returns the bytes copied
// so far and ErrClosed — or when the health hook condemned
// maxCondemnedRun consecutive segments, after the bytes before them.
// Read must not be called from more than one goroutine at a time, but
// it is safe against a concurrent Close.
func (s *Stream) Read(p []byte) (int, error) {
	select {
	case <-s.stop:
		return 0, ErrClosed
	default:
	}
	n := len(p)
	for len(p) > 0 {
		if s.pos == len(s.cur) {
			if err := s.advance(); err != nil {
				return n - len(p), err
			}
		}
		k := copy(p, s.cur[s.pos:])
		s.pos += k
		p = p[k:]
	}
	return n, nil
}

// advance recycles the consumed chunk and receives the next non-empty
// one in the fixed worker-round-robin order. It returns ErrClosed once
// Close has been observed, and a worker's health error once the chunk
// that carried it is consumed.
func (s *Stream) advance() error {
	for {
		if s.cur != nil {
			select {
			case s.free <- s.cur:
			default:
			}
			s.cur = nil
		}
		if s.err != nil {
			return s.err
		}
		var c chunk
		select {
		case c = <-s.chunks[s.next]:
		case <-s.stop:
			return ErrClosed
		}
		s.next = (s.next + 1) % s.workers
		s.cur, s.pos, s.err = c.b, 0, c.err
		if len(s.cur) > 0 {
			return nil
		}
	}
}

// WriteTo streams to w until w returns an error or the Stream fails,
// copying each staging chunk exactly once: w.Write receives the chunk
// the engine filled itself, which the stream overwrites after Write
// returns, so w must not retain it. The stream is unbounded, so WriteTo
// only returns on error: wrap w so it fails after the wanted byte
// count, or Close the stream. A short write advances the stream by only
// the bytes actually written — the unread remainder is delivered by the
// next Read/WriteTo — and, per the io.Writer contract, reports
// io.ErrShortWrite if w gave no error. WriteTo shares the consumer
// cursor with Read: one consuming goroutine at a time, Close may race.
func (s *Stream) WriteTo(w io.Writer) (int64, error) {
	select {
	case <-s.stop:
		return 0, ErrClosed
	default:
	}
	var n int64
	for {
		if s.pos == len(s.cur) {
			if err := s.advance(); err != nil {
				return n, err
			}
		}
		k, err := w.Write(s.cur[s.pos:])
		if k > 0 {
			s.pos += k
			n += int64(k)
		}
		if err != nil {
			return n, err
		}
		if s.pos != len(s.cur) {
			return n, io.ErrShortWrite
		}
	}
}

// Close stops the workers and unblocks any in-flight Read (which then
// returns ErrClosed). Close is idempotent and safe to call while
// another goroutine is reading.
func (s *Stream) Close() {
	s.once.Do(func() {
		close(s.stop)
		// Drain so workers blocked on delivery observe the stop.
		for _, c := range s.chunks {
			select {
			case <-c:
			default:
			}
		}
		s.wg.Wait()
	})
}

// Workers reports the pool size.
func (s *Stream) Workers() int { return s.workers }

// Fill generates len(dst) bytes using all workers in one parallel
// one-shot: dst is split into contiguous, segment-aligned per-worker
// regions (the "coalesced write" layout of §4.5), and worker w reads its
// region straight out of the domain-1 stream at the region's offset. So
// dst receives exactly the first len(dst) bytes of a Stream of the seed,
// whatever the worker count.
func Fill(alg Algorithm, seed uint64, workers int, dst []byte) error {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if len(dst) == 0 {
		return nil
	}
	// Regions are whole segments except the last.
	per := max((len(dst)/workers+SegmentBytes-1)/SegmentBytes, 1) * SegmentBytes
	var readers []*Generator
	for lo := 0; lo < len(dst); lo += per {
		r, err := NewSegmentReader(alg, seed, 1, 0, uint64(lo))
		if err != nil {
			return err
		}
		readers = append(readers, r)
	}
	var wg sync.WaitGroup
	for i, r := range readers {
		lo := i * per
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Read(dst[lo:min(lo+per, len(dst))])
		}()
	}
	wg.Wait()
	return nil
}
