package core

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Hammer a Stream with a reader racing Close (run under -race in CI):
// the reader must unblock with ErrClosed, never deadlock or trip the
// race detector.
func TestStreamConcurrentReadClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		s, err := NewStream(TRIVIUM, uint64(round), StreamConfig{Workers: 4, StagingBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			for {
				if _, err := s.Read(buf); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("round %d: unexpected error %v", round, err)
					}
					return
				}
			}
		}()
		// Stagger the close across rounds to vary the interleaving.
		if round%3 == 0 {
			b := make([]byte, 64)
			_, _ = s.Read(b[:0]) // no-op read, just jitter
		}
		s.Close()
		wg.Wait()
		// Close is idempotent and post-Close reads fail fast.
		s.Close()
		if _, err := s.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: post-Close Read returned %v, want ErrClosed", round, err)
		}
	}
}

// Stats must count every skipped segment and be safe to snapshot
// concurrently and after Close.
func TestStreamStats(t *testing.T) {
	// The hook condemns the segments whose first byte is below 16: about
	// one in 16, chosen by the bytes alone.
	s, err := NewStream(GRAIN, 1, StreamConfig{
		Workers: 2, StagingBytes: 1024,
		Health: func(seg []byte) error {
			if seg[0] < 16 {
				return errors.New("condemned")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Stats()
			}
		}
	}()
	got := make([]byte, 100*SegmentBytes)
	_, err = io.ReadFull(s, got)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	ref := domainOne(t, GRAIN, 1, 200*SegmentBytes)
	dropped := droppedSegments(t, ref, got)
	for _, i := range dropped {
		if ref[i*SegmentBytes] >= 16 {
			t.Fatalf("segment %d was skipped but not condemned", i)
		}
	}
	if len(dropped) == 0 {
		t.Fatal("no segment condemned in 100; the hook never ran")
	}
	s.Close()
	if st := s.Stats(); st.HealthFailures < uint64(len(dropped)) { // safe after Close
		t.Errorf("HealthFailures = %d, want ≥ the %d skipped segments", st.HealthFailures, len(dropped))
	}
}

// Fill and Stream share one byte definition: Fill's contiguous
// per-worker regions hold exactly the domain-1 stream at their offsets,
// which is what a Stream of any worker count reads.
func TestFillMatchesStreamWorkerRegions(t *testing.T) {
	const total = 3*4*SegmentBytes + 100
	for _, alg := range ServedAlgorithms {
		want := domainOne(t, alg, 77, total)
		for _, workers := range []int{1, 3, 5} {
			filled := make([]byte, total)
			if err := Fill(alg, 77, workers, filled); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(filled, want) {
				t.Errorf("%v: %d-worker Fill diverges from the domain-1 stream", alg, workers)
			}
			s, err := NewStream(alg, 77, StreamConfig{Workers: workers, StagingBytes: SegmentBytes})
			if err != nil {
				t.Fatal(err)
			}
			streamed := make([]byte, total)
			if _, err := io.ReadFull(s, streamed); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if !bytes.Equal(streamed, want) {
				t.Errorf("%v: %d-worker Stream diverges from the domain-1 stream", alg, workers)
			}
		}
	}
}

// An idle worker stays exactly stagingChunks-1 chunks ahead of the
// consumer: it fills one chunk into its channel, fills the next and
// waits to deliver it, and fills no further chunk until the consumer
// receives one. The counting hook sees every segment a worker produces.
func TestStreamStagingBound(t *testing.T) {
	const spc = 4 // segments per staging chunk
	for _, workers := range []int{1, 3} {
		var produced atomic.Int64
		s, err := NewStream(TRIVIUM, 3, StreamConfig{
			Workers: workers, StagingBytes: spc * SegmentBytes,
			Health: func([]byte) error { produced.Add(1); return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		// Poll until the count stops moving, at or past the bound: a
		// worker descheduled before its first chunks must not pass for
		// an idle one.
		want := int64(workers * (stagingChunks - 1) * spc)
		last := int64(-1)
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			time.Sleep(50 * time.Millisecond)
			n := produced.Load()
			if n == last && n >= want {
				break
			}
			last = n
		}
		s.Close()
		if last != want {
			t.Errorf("%d idle workers produced %d segments, want %d (%d chunks of %d each)",
				workers, last, want, stagingChunks-1, spc)
		}
	}
}
