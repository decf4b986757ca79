package core

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	"repro/internal/health"
)

// errSink stops accepting writes after n bytes, like the server's
// response budget writer.
type errSink struct {
	buf bytes.Buffer
	n   int
}

var errSinkFull = errors.New("sink full")

func (e *errSink) Write(p []byte) (int, error) {
	if e.buf.Len() >= e.n {
		return 0, errSinkFull
	}
	if rem := e.n - e.buf.Len(); len(p) > rem {
		k, _ := e.buf.Write(p[:rem])
		return k, errSinkFull
	}
	return e.buf.Write(p)
}

func TestStreamWriteToMatchesRead(t *testing.T) {
	const n = 1 << 20
	want := domainOne(t, TRIVIUM, 7, n)
	for _, workers := range []int{1, 3} {
		s, err := NewStream(TRIVIUM, 7, StreamConfig{Workers: workers, StagingBytes: 8192})
		if err != nil {
			t.Fatal(err)
		}
		sink := &errSink{n: n}
		got, err := s.WriteTo(sink)
		s.Close()
		if !errors.Is(err, errSinkFull) {
			t.Fatalf("workers=%d: WriteTo err = %v, want sink full", workers, err)
		}
		if got != n {
			t.Fatalf("workers=%d: WriteTo wrote %d bytes, want %d", workers, got, n)
		}
		if !bytes.Equal(sink.buf.Bytes(), want) {
			t.Fatalf("workers=%d: WriteTo bytes differ from the domain-1 stream", workers)
		}
	}
}

// TestStreamConsumerInterleaving drives one stream through both
// consumption APIs in turn — Read, and WriteTo with a mid-chunk cutoff —
// and checks the concatenation is the canonical stream.
func TestStreamConsumerInterleaving(t *testing.T) {
	const n = 1 << 20
	want := domainOne(t, GRAIN, 99, n)

	s, err := NewStream(GRAIN, 99, StreamConfig{Workers: 2, StagingBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var got bytes.Buffer
	buf := make([]byte, 3000) // deliberately not chunk-aligned
	for round := 0; got.Len() < n; round++ {
		if round%2 == 0 {
			if _, err := io.ReadFull(s, buf); err != nil {
				t.Fatal(err)
			}
			got.Write(buf)
			continue
		}
		// Cut WriteTo off mid-chunk; the remainder must surface in the
		// next consumer call.
		sink := &errSink{n: 5000}
		k, err := s.WriteTo(sink)
		if !errors.Is(err, errSinkFull) {
			t.Fatalf("WriteTo err = %v", err)
		}
		if k != 5000 {
			t.Fatalf("WriteTo wrote %d, want 5000", k)
		}
		got.Write(sink.buf.Bytes())
	}
	if !bytes.Equal(got.Bytes()[:n], want) {
		t.Fatal("interleaved Read/WriteTo bytes differ from canonical stream")
	}
}

// TestWriteToConcurrentClose hammers the writer handoff against a
// concurrent Close (run under -race in CI): WriteTo must return
// ErrClosed, never deadlock.
func TestWriteToConcurrentClose(t *testing.T) {
	for i := 0; i < 20; i++ {
		s, err := NewStream(MICKEY, uint64(i), StreamConfig{Workers: 2, StagingBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.WriteTo(io.Discard); !errors.Is(err, ErrClosed) {
				t.Errorf("WriteTo err = %v, want ErrClosed", err)
			}
		}()
		s.Close()
		wg.Wait()
	}
}

// TestSteadyStateAllocs pins the tentpole property: once warmed, the
// stream datapath — engine passes, rekeys at pass boundaries, chunk
// handoff and consumption — runs without heap allocations.
func TestSteadyStateAllocs(t *testing.T) {
	for _, alg := range Algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			for _, cfg := range []StreamConfig{
				{Workers: 1, StagingBytes: 64 << 10},
				{Workers: 3, StagingBytes: 64 << 10},
				{Workers: 1, StagingBytes: 64 << 10, Health: health.NewChecker(health.Config{}).Check},
			} {
				s, err := NewStream(alg, 5, cfg)
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, 64<<10)
				// Warm up: run every worker through its staging
				// chunks.
				for i := 0; i < 16; i++ {
					if _, err := io.ReadFull(s, buf); err != nil {
						t.Fatal(err)
					}
				}
				// Each round reads a full staging chunk, so sustained
				// reading crosses engine pass boundaries (one rekey per
				// 128 KiB per worker) — the rekey path, and the health
				// screen when a hook is set, must be allocation-free too.
				avg := testing.AllocsPerRun(32, func() {
					if _, err := io.ReadFull(s, buf); err != nil {
						t.Fatal(err)
					}
				})
				s.Close()
				// The producer goroutines' allocations land in the same
				// global counter; allow a tiny residue for channel
				// scheduling noise.
				if avg > 0.5 {
					t.Fatalf("workers=%d health=%t: steady-state Read allocates %.2f objects per 64KiB chunk, want ~0",
						cfg.Workers, cfg.Health != nil, avg)
				}
			}
		})
	}
}

// TestGeneratorRekeyAllocs pins the single-engine rekey path: reading
// whole passes forever re-derives key/IV material and re-runs every
// cipher key schedule with zero heap allocations.
func TestGeneratorRekeyAllocs(t *testing.T) {
	for _, alg := range Algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			g, err := NewGenerator(alg, 5)
			if err != nil {
				t.Fatal(err)
			}
			// One pass = lanes × SegmentBytes; reading it in full forces a
			// rekey per iteration.
			buf := make([]byte, DefaultLanes*SegmentBytes)
			g.Read(buf) // warm up
			avg := testing.AllocsPerRun(8, func() { g.Read(buf) })
			if avg > 0 {
				t.Fatalf("pass-boundary rekey allocates %.2f objects per pass, want 0", avg)
			}
		})
	}
}
