package core

import (
	"bytes"
	"sync"
	"testing"
)

// The canonical stream is defined in segments keyed by absolute index, so
// the emitted bytes must be bit-identical at every accepted lane width —
// and every width runs, and reports, the 64-lane datapath.
func TestGeneratorWidthIndependence(t *testing.T) {
	for _, alg := range Algorithms {
		base, err := NewGeneratorLanes(alg, 77, 64)
		if err != nil {
			t.Fatal(err)
		}
		// Long enough to cross several rekey boundaries at 64 lanes.
		want := make([]byte, 3*64*SegmentBytes+777)
		base.Read(want)
		for _, lanes := range []int{256, 512} {
			g, err := NewGeneratorLanes(alg, 77, lanes)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			g.Read(got)
			if !bytes.Equal(got, want) {
				t.Errorf("%v: %d-lane stream diverges from 64-lane stream", alg, lanes)
			}
			if g.Lanes() != DefaultLanes {
				t.Errorf("%v: built at %d lanes, Lanes() = %d, want %d", alg, lanes, g.Lanes(), DefaultLanes)
			}
		}
	}
}

func TestStreamWidthIndependence(t *testing.T) {
	read := func(lanes int) []byte {
		s, err := NewStream(GRAIN, 13, StreamConfig{Workers: 2, StagingBytes: 4096, Lanes: lanes})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		buf := make([]byte, 200000)
		if _, err := s.Read(buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	want := read(64)
	for _, lanes := range []int{0, 256, 512} {
		if got := read(lanes); !bytes.Equal(got, want) {
			t.Errorf("stream bytes at %d lanes diverge from 64 lanes", lanes)
		}
	}
}

func TestFillWidthIndependence(t *testing.T) {
	want := make([]byte, 100000)
	if err := FillLanes(TRIVIUM, 5, 4, 64, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := FillLanes(TRIVIUM, 5, 4, 512, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("Fill bytes depend on the lane width")
	}
}

func TestLanesValidation(t *testing.T) {
	cases := []struct {
		lanes int
		ok    bool
	}{
		{0, true}, {64, true}, {256, true}, {512, true},
		{-1, false}, {1, false}, {32, false}, {65, false},
		{128, false}, {257, false}, {1024, false},
	}
	for _, tc := range cases {
		if err := ValidateLanes(tc.lanes); (err == nil) != tc.ok {
			t.Errorf("ValidateLanes(%d): err=%v, want ok=%v", tc.lanes, err, tc.ok)
		}
		_, err := NewStream(MICKEY, 1, StreamConfig{Workers: 1, Lanes: tc.lanes})
		if (err == nil) != tc.ok {
			t.Errorf("NewStream lanes=%d: err=%v, want ok=%v", tc.lanes, err, tc.ok)
		}
		_, err = NewGeneratorLanes(MICKEY, 1, tc.lanes)
		if (err == nil) != tc.ok {
			t.Errorf("NewGeneratorLanes(%d): err=%v, want ok=%v", tc.lanes, err, tc.ok)
		}
		err = FillLanes(MICKEY, 1, 1, tc.lanes, make([]byte, 64))
		if (err == nil) != tc.ok {
			t.Errorf("FillLanes lanes=%d: err=%v, want ok=%v", tc.lanes, err, tc.ok)
		}
	}
}

// A stream built at a wide lane width under concurrent Read/Close/Stats pressure (run with
// -race in CI): reads from multiple goroutines are serialized by the
// callers here — the contract is one reader at a time — but Stats and
// Close race freely against the reader.
func TestWideLaneStreamConcurrency(t *testing.T) {
	s, err := NewStream(TRIVIUM, 3, StreamConfig{Workers: 4, StagingBytes: 8192, Lanes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex // serializes Read, per the Stream contract
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 32768)
			for i := 0; i < 8; i++ {
				mu.Lock()
				_, err := s.Read(buf)
				mu.Unlock()
				if err != nil {
					return
				}
				s.Stats()
			}
		}()
	}
	wg.Wait()
	s.Close()
	if got := s.Stats().BytesDelivered; got != 4*8*32768 {
		t.Errorf("BytesDelivered = %d, want %d", got, 4*8*32768)
	}
}
