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
// 64-lane bitsliced engine, mirror the paper's CUDA thread blocks. Every
// worker accumulates output in a private staging buffer (the shared-memory
// staging of §4.5) and hands full chunks to the consumer, which assembles
// them in a fixed worker-round-robin order — so the stream is
// deterministic for a given (algorithm, seed, workers, staging) tuple
// regardless of scheduling.
type Stream struct {
	alg     Algorithm
	workers int
	staging int
	health  func(seg []byte) error

	chunks []chan []byte // per-worker ordered chunk delivery
	free   chan []byte   // recycled buffers
	stop   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once

	cur  []byte // chunk currently being consumed
	pos  int
	next int // worker whose chunk is consumed next

	chunksProduced atomic.Uint64
	bytesDelivered atomic.Uint64
	recycleHits    atomic.Uint64

	healthFailures    atomic.Uint64
	engineReseeds     atomic.Uint64
	healthUnrecovered atomic.Uint64
}

// StreamStats is a point-in-time snapshot of a Stream's internal
// throughput counters, for engine-level observability (bsrngd exports
// them on /metrics).
type StreamStats struct {
	// ChunksProduced counts staging chunks the workers handed to the
	// consumer side.
	ChunksProduced uint64
	// BytesDelivered counts bytes copied out by Read.
	BytesDelivered uint64
	// RecycleHits counts staging buffers reused from the free list
	// instead of freshly allocated.
	RecycleHits uint64
	// HealthFailures counts segments condemned by the configured health
	// hook (each one was discarded, never delivered as-is).
	HealthFailures uint64
	// EngineReseeds counts engine reseeds triggered by health failures:
	// the offending worker's engine rekeyed itself with fresh material
	// and regenerated the condemned segment's slot.
	EngineReseeds uint64
	// HealthUnrecovered counts segments delivered after exhausting the
	// reseed retry budget with the hook still objecting — it stays zero
	// unless the hook rejects independently regenerated segments, which
	// indicates a broken hook (or cutoffs set into healthy range) rather
	// than a broken engine.
	HealthUnrecovered uint64
}

// Stats returns a snapshot of the stream's counters. It is safe to call
// concurrently with Read and Close.
func (s *Stream) Stats() StreamStats {
	return StreamStats{
		ChunksProduced:    s.chunksProduced.Load(),
		BytesDelivered:    s.bytesDelivered.Load(),
		RecycleHits:       s.recycleHits.Load(),
		HealthFailures:    s.healthFailures.Load(),
		EngineReseeds:     s.engineReseeds.Load(),
		HealthUnrecovered: s.healthUnrecovered.Load(),
	}
}

// StreamConfig tunes the Stream; zero values select defaults
// (runtime.NumCPU() workers, 64 KiB staging chunks, DefaultLanes-wide
// engines).
type StreamConfig struct {
	Workers int
	// StagingBytes is the per-worker chunk size. The paper determines the
	// analogous shared-memory occupancy "by try and error" (§4.5); the
	// BenchmarkStagingAblation bench sweeps it.
	StagingBytes int
	// Lanes is the engine lane width: any value ValidateLanes accepts.
	// Every width runs the 64-lane datapath and yields identical bytes.
	Lanes int
	// Health, when non-nil, is a continuous online health test run
	// against every SegmentBytes-sized segment at production time, from
	// the producing worker's goroutine (so it must be safe for
	// concurrent use — health.Checker.Check qualifies). A non-nil error
	// condemns the segment: it is discarded, the worker's engine is
	// reseeded with fresh material, and the slot is regenerated (up to
	// maxHealthReseeds times) before delivery. StreamStats counts the
	// events. A nil hook — the default — leaves the hot path untouched.
	Health func(seg []byte) error
}

// maxHealthReseeds bounds regeneration attempts per condemned segment.
// Independent reseeds draw unrelated key material, so hitting the bound
// means the hook fails healthy output; the stream then delivers the
// last regenerated segment and counts it in HealthUnrecovered instead
// of livelocking the worker.
const maxHealthReseeds = 4

// FailpointSegmentCorrupt is the faultinject site, hit once per
// produced segment (only when a health hook is configured), that
// zeroes the segment when fired — the chaos lever that proves the
// discard/reseed path end to end.
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
	if err := ValidateLanes(cfg.Lanes); err != nil {
		return nil, err
	}

	s := &Stream{
		alg:     alg,
		workers: cfg.Workers,
		staging: cfg.StagingBytes,
		health:  cfg.Health,
		chunks:  make([]chan []byte, cfg.Workers),
		free:    make(chan []byte, 4*cfg.Workers),
		stop:    make(chan struct{}),
	}
	engines := make([]engine, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		eng, err := newEngine(alg, seed, uint64(w)+1)
		if err != nil {
			return nil, err
		}
		engines[w] = eng
		s.chunks[w] = make(chan []byte, 2)
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.run(w, engines[w])
	}
	return s, nil
}

// run is one worker: generate into a staging buffer, deliver, repeat.
// The engine writes segments straight into the staging chunk (nextBlocks
// aims the cipher's lane buffers at it), so in steady state each output
// byte is produced in place and copied at most once more, by the
// consumer.
func (s *Stream) run(w int, eng engine) {
	defer s.wg.Done()
	blk := eng.blockBytes()
	// Round the chunk down to whole engine blocks.
	chunkLen := s.staging / blk * blk
	if chunkLen == 0 {
		chunkLen = blk
	}
	// One check closure per worker, hoisted so the hot loop allocates
	// nothing.
	var check func(seg []byte)
	if s.health != nil {
		check = func(seg []byte) { s.checkSegment(eng, seg) }
	}
	for {
		var buf []byte
		select {
		case buf = <-s.free:
		default:
		}
		if cap(buf) < chunkLen {
			buf = make([]byte, chunkLen)
		} else {
			s.recycleHits.Add(1)
		}
		buf = buf[:chunkLen]
		eng.nextBlocks(buf, check)
		// Counted at generation time, before delivery, so a consumer
		// that has received a chunk always observes it in Stats.
		s.chunksProduced.Add(1)
		select {
		case s.chunks[w] <- buf:
		case <-s.stop:
			return
		}
	}
}

// checkSegment runs the continuous health test on one freshly produced
// segment. A condemned segment is never delivered as produced: the
// engine reseeds with fresh material and regenerates the slot, bounded
// by maxHealthReseeds.
func (s *Stream) checkSegment(eng engine, seg []byte) {
	if faultinject.Hit(FailpointSegmentCorrupt) {
		for i := range seg {
			seg[i] = 0
		}
	}
	for try := 0; ; try++ {
		if err := s.health(seg); err == nil {
			return
		}
		s.healthFailures.Add(1)
		if try == maxHealthReseeds {
			s.healthUnrecovered.Add(1)
			return
		}
		eng.reseed()
		s.engineReseeds.Add(1)
		eng.nextBlock(seg)
	}
}

// Read assembles the deterministic stream. It fails only when the
// Stream is closed: a Read racing (or following) Close returns the
// bytes copied so far and ErrClosed. Read must not be called from more
// than one goroutine at a time, but it is safe against a concurrent
// Close.
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
				s.bytesDelivered.Add(uint64(n - len(p)))
				return n - len(p), err
			}
		}
		k := copy(p, s.cur[s.pos:])
		s.pos += k
		p = p[k:]
	}
	s.bytesDelivered.Add(uint64(n))
	return n, nil
}

// advance recycles the consumed chunk and receives the next one in the
// fixed worker-round-robin order. It returns ErrClosed once Close has
// been observed.
func (s *Stream) advance() error {
	if s.cur != nil {
		select {
		case s.free <- s.cur:
		default:
		}
		s.cur = nil
	}
	select {
	case s.cur = <-s.chunks[s.next]:
	case <-s.stop:
		return ErrClosed
	}
	s.next = (s.next + 1) % s.workers
	s.pos = 0
	return nil
}

// WriteTo streams to w until w returns an error or the Stream is closed,
// copying each staging chunk exactly once (straight from the chunk the
// engine filled into the writer). The stream is unbounded, so WriteTo
// only returns on error: wrap w so it fails after the wanted byte count
// (bsrngd serves bulk /bytes responses this way), or Close the stream.
// A short write advances the stream by only the bytes actually written —
// the unread remainder is delivered by the next Read/WriteTo/NextChunk —
// and, per the io.Writer contract, reports io.ErrShortWrite if w gave no
// error. WriteTo shares the consumer cursor with Read/NextChunk: one
// consuming goroutine at a time, Close may race.
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
			s.bytesDelivered.Add(uint64(k))
		}
		if err != nil {
			return n, err
		}
		if s.pos != len(s.cur) {
			return n, io.ErrShortWrite
		}
	}
}

// NextChunk hands out the next span of the stream without copying: the
// returned slice is the staging chunk the engine filled (or its unread
// remainder after a partial Read/WriteTo). It stays valid until the next
// consuming call (Read, WriteTo, NextChunk) or Recycle, whichever comes
// first — consume it, then let the stream reuse the buffer. Shares the
// consumer cursor with Read/WriteTo: one consuming goroutine at a time,
// Close may race (NextChunk then returns ErrClosed).
func (s *Stream) NextChunk() ([]byte, error) {
	select {
	case <-s.stop:
		return nil, ErrClosed
	default:
	}
	if s.pos == len(s.cur) {
		if err := s.advance(); err != nil {
			return nil, err
		}
	}
	c := s.cur[s.pos:]
	s.pos = len(s.cur)
	s.bytesDelivered.Add(uint64(len(c)))
	return c, nil
}

// Recycle returns the chunk handed out by NextChunk to the stream's
// free list immediately, instead of waiting for the next consuming call.
// It is a no-op if there is nothing fully consumed to recycle.
func (s *Stream) Recycle() {
	if s.cur != nil && s.pos == len(s.cur) {
		select {
		case s.free <- s.cur:
		default:
		}
		s.cur = nil
		s.pos = 0
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
// one-shot at the default lane width; see FillLanes.
func Fill(alg Algorithm, seed uint64, workers int, dst []byte) error {
	return FillLanes(alg, seed, workers, DefaultLanes, dst)
}

// FillLanes generates len(dst) bytes using all workers in one parallel
// one-shot: dst is split into contiguous per-worker regions (the
// "coalesced write" layout of §4.5) that are filled concurrently. The
// output is deterministic for a given (algorithm, seed, workers) and
// independent of StagingBytes and of the lane width.
func FillLanes(alg Algorithm, seed uint64, workers, lanes int, dst []byte) error {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if err := ValidateLanes(lanes); err != nil || len(dst) == 0 {
		return err
	}
	// Regions are whole multiples of the engine block size except the last.
	probe, err := newEngine(alg, seed, 1)
	if err != nil {
		return err
	}
	blk := probe.blockBytes()
	per := (len(dst)/workers + blk - 1) / blk * blk
	if per == 0 {
		per = blk
	}
	var wg sync.WaitGroup
	var firstErr error
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		lo := w * per
		if lo >= len(dst) {
			break
		}
		hi := lo + per
		if hi > len(dst) {
			hi = len(dst)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			// Worker w uses seed domain w+1, the same derivation as the
			// Stream workers; worker 0 reuses the probe engine.
			var eng engine
			var err error
			if w == 0 {
				eng = probe
			} else {
				eng, err = newEngine(alg, seed, uint64(w)+1)
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			// Whole blocks are generated straight into dst; only a
			// trailing partial block passes through a scratch buffer.
			n := hi - lo
			aligned := n / blk * blk
			if aligned > 0 {
				eng.nextBlocks(dst[lo:lo+aligned], nil)
			}
			if aligned < n {
				tail := make([]byte, blk)
				eng.nextBlock(tail)
				copy(dst[lo+aligned:hi], tail)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	return firstErr
}
