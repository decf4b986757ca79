// Package bsrng is a high-throughput parallel bitsliced pseudo-random
// number generator library — a from-scratch Go reproduction of
// "BSRNG: A High Throughput Parallel BitSliced Approach for Random Number
// Generators" (ICPP Workshops 2020).
//
// The library generates cryptographically-grade pseudo-random bytes with
// bitsliced (column-major) implementations of the paper's three ciphers,
// the MICKEY 2.0 and Grain v1 stream ciphers and AES-128 in counter
// mode, and of two more families: the Trivium stream cipher and Brent's
// xorgens4096 recurrence. Any of them can be post-processed by chaotic
// iterations (Chaotic). One 64-bit word carries the same state bit of
// 64 independent cipher instances, so every XOR/AND advances 64
// generators at once and the LFSR shift-and-mask work disappears into
// register renaming.
//
// Quick start:
//
//	g, err := bsrng.New(bsrng.MICKEY, 42)
//	if err != nil { ... }
//	buf := make([]byte, 1<<20)
//	g.Read(buf) // deterministic, seeded, NIST SP 800-22-clean bytes
//
// For multi-core throughput use Stream (a deterministic worker pool) or
// Fill (a one-shot parallel fill):
//
//	s, err := bsrng.NewStream(bsrng.GRAIN, 42, bsrng.StreamConfig{})
//	defer s.Close()
//	s.Read(buf)
//
// Stream and Fill produce one byte sequence for a given algorithm and
// seed, whatever their worker count: the domain-1 segment stream,
// NewSegmentReader(alg, seed, 1, 0). So output made on
// many cores can be regenerated, or resumed at any offset, on one.
//
// Stream's datapath is zero-copy: each worker's engine writes segments
// straight into the staging chunk it hands to the consumer. Every
// worker cycles through three fixed staging chunks, allocated by
// NewStream, so it runs at most two chunks ahead of the consumer, the
// steady state allocates nothing and each output byte is copied at most
// once (chunk → your buffer). To skip that last copy too, consume via
// s.WriteTo(w), which hands each chunk itself to w.
//
// The repository also contains the paper's full evaluation apparatus: the
// naive baselines, the cuRAND generator family, an NIST SP 800-22
// implementation, and the GPU roofline model that regenerates the paper's
// tables and figures (see cmd/experiments and EXPERIMENTS.md).
package bsrng

import (
	"repro/internal/core"
	"repro/internal/health"
)

// Algorithm selects the underlying bitsliced CSPRNG.
type Algorithm = core.Algorithm

// The supported algorithms.
const (
	// MICKEY is the bitsliced MICKEY 2.0 engine — the paper's headline
	// generator.
	MICKEY = core.MICKEY
	// GRAIN is the bitsliced Grain v1 engine.
	GRAIN = core.GRAIN
	// AESCTR is the AES-128 counter-mode engine: AES-NI CTR, one lane
	// at a time, on CPUs that have AES-NI, and the bitsliced cipher on
	// the rest. The bytes are the same on both.
	AESCTR = core.AESCTR
	// TRIVIUM is the bitsliced Trivium engine (extension beyond the
	// paper's three ciphers; fastest in this repository).
	TRIVIUM = core.TRIVIUM
	// XORGENS is the xorgens-style F₂-linear engine (Brent's xorgens4096
	// recurrence). It runs the scalar recurrence one lane at a time,
	// which on a CPU costs less than its bitsliced form.
	XORGENS = core.XORGENS
)

// Chaotic returns the chaotic-iterations post-processed mode of base
// (Bahi et al.): the base keystream hardened by an XOR-form CIPRNG
// layer. Parseable/printable as "chaotic(<base>)".
func Chaotic(base Algorithm) Algorithm { return core.Chaotic(base) }

// Algorithms lists all base engines.
var Algorithms = core.Algorithms

// ServedAlgorithms is the default serving/benchmark/certification
// matrix: every base engine plus one chaotic post-processed mode.
var ServedAlgorithms = core.ServedAlgorithms

// ParseAlgorithm maps a name like "mickey", "grain", "aes-ctr",
// "trivium", "xorgens" or "chaotic(<name>)" to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// Generator is a deterministic single-engine generator: 64 cipher
// instances behind an io.Reader, run as one 64-lane bitsliced pass or
// one lane at a time, whichever the engine's one-lane rule picks.
type Generator = core.Generator

// New builds a seeded Generator: the domain-0 stream of seed.
func New(alg Algorithm, seed uint64) (*Generator, error) {
	return core.NewGenerator(alg, seed)
}

// SegmentBytes is the unit of the canonical segment-addressed stream:
// segment j of a (seed, domain) space is SegmentBytes bytes, keyed
// only by its absolute index, so any window is randomly addressable.
const SegmentBytes = core.SegmentBytes

// NewSegmentReader opens the canonical segment stream of (alg, seed,
// domain) at an absolute byte offset — including mid-segment — and
// returns a Generator positioned there. The bytes are a pure function
// of (alg, seed, domain, offset), which is what makes bsrngd's addressed
// /stream windows and lease resume verifiable offline: any holder of
// the seed can re-derive a served window byte-for-byte.
func NewSegmentReader(alg Algorithm, seed, domain, offset uint64) (*Generator, error) {
	return core.NewSegmentReader(alg, seed, domain, core.DefaultLanes, offset)
}

// Stream is the multi-core generator: one bitsliced engine per worker,
// all serving the domain-1 segment stream of the seed, so the output is
// deterministic for (algorithm, seed) whatever the configuration.
// Consume it with Read (io.Reader) or WriteTo (io.WriterTo; copies each
// staging chunk exactly once, into the writer).
type Stream = core.Stream

// StreamConfig tunes the Stream (zero values = all CPUs, 64 KiB staging).
type StreamConfig = core.StreamConfig

// StreamStats is a snapshot of a Stream's health counter: the segments
// its health hook condemned and the stream skipped.
type StreamStats = core.StreamStats

// ErrStreamClosed is returned by Stream.Read once Close has been
// observed.
var ErrStreamClosed = core.ErrClosed

// NewStream starts a Stream worker pool; call Close when done.
func NewStream(alg Algorithm, seed uint64, cfg StreamConfig) (*Stream, error) {
	return core.NewStream(alg, seed, cfg)
}

// Fill writes len(dst) deterministic pseudo-random bytes using the given
// number of workers (0 = all CPUs): the first len(dst) bytes of every
// Stream of (alg, seed).
func Fill(alg Algorithm, seed uint64, workers int, dst []byte) error {
	return core.Fill(alg, seed, workers, dst)
}

// HealthChecker runs SP 800-90B-style (RCT, APT) and FIPS 140-2-style
// (monobit, long-run) continuous tests against 2048-byte segments. Its
// Check method is safe for concurrent use and plugs directly into
// StreamConfig.Health:
//
//	checker := bsrng.NewHealthChecker()
//	s, _ := bsrng.NewStream(bsrng.MICKEY, 42, bsrng.StreamConfig{Health: checker.Check})
//
// A condemned segment is skipped, never delivered, and counted in
// StreamStats; the stream is the domain-1 stream less exactly its
// condemned segments. A run of condemned segments ends the stream with
// an error wrapping the last HealthFailure.
type HealthChecker = health.Checker

// HealthFailure is the error a HealthChecker returns for a condemned
// segment, naming the tripped test and the observed statistic.
type HealthFailure = health.Failure

// NewHealthChecker builds a checker. Its cutoffs are fixed: each sits
// where a healthy segment fails with probability below 2^-45 (see
// internal/health).
func NewHealthChecker() *HealthChecker {
	return health.NewChecker(health.Config{})
}

// Source64 adapts a Generator to math/rand.Source64.
type Source64 = core.Source64

// NewSource64 builds the math/rand adapter.
func NewSource64(alg Algorithm, seed uint64) (*Source64, error) {
	return core.NewSource64(alg, seed)
}
