package core

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/health"
)

// domainOne reads the first n bytes of the domain-1 stream: the bytes
// every Stream and Fill of (alg, seed) must produce.
func domainOne(t testing.TB, alg Algorithm, seed uint64, n int) []byte {
	return segmentReaderWindow(t, alg, seed, 1, 0, n)
}

// droppedSegments aligns got against the reference stream ref segment
// by segment and returns the indices of the reference segments that got
// lacks. It fails t unless got is ref with whole segments left out.
func droppedSegments(t *testing.T, ref, got []byte) []int {
	t.Helper()
	var dropped []int
	i := 0
	for off := 0; off < len(got); off += SegmentBytes {
		seg := got[off:min(off+SegmentBytes, len(got))]
		for ; (i+1)*SegmentBytes <= len(ref) && !bytes.HasPrefix(ref[i*SegmentBytes:], seg); i++ {
			dropped = append(dropped, i)
		}
		if (i+1)*SegmentBytes > len(ref) {
			t.Fatalf("bytes at offset %d are not a segment of the reference stream", off)
		}
		i++
	}
	return dropped
}

// A clean stream under a real checker must deliver its canonical bytes:
// the hook only observes, never perturbs, healthy output.
func TestHealthHookTransparentOnHealthyStream(t *testing.T) {
	checker := health.NewChecker(health.Config{})
	withHook, err := NewStream(MICKEY, 42, StreamConfig{
		Workers: 2, StagingBytes: 2048, Health: checker.Check,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer withHook.Close()

	got := make([]byte, 16*SegmentBytes)
	if _, err := io.ReadFull(withHook, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, domainOne(t, MICKEY, 42, len(got))) {
		t.Fatal("health hook changed the bytes of a healthy stream")
	}
	if st := withHook.Stats(); st.HealthFailures != 0 {
		t.Fatalf("healthy stream recorded health events: %+v", st)
	}
	if cs := checker.Stats(); cs.Segments == 0 {
		t.Fatal("checker never ran")
	}
}

// A condemned segment is skipped, the server's rule: the stream is the
// domain-1 stream less exactly the condemned segments, at one worker
// and at several, and whether the core.segment.corrupt failpoint or an
// engine fault the hook sees zeroes them.
func TestHealthHookSkipsCondemnedSegments(t *testing.T) {
	cases := []struct {
		name      string
		workers   int
		staging   int
		failpoint [2]uint64 // hit range the failpoint zeroes; 0 = unarmed
		zero      []int     // segments the hook zeroes before checking
		want      []int     // segments the stream must lack; nil = any failpoint hits
	}{
		{name: "w1-failpoint-run", workers: 1, staging: 2048, failpoint: [2]uint64{2, 3}, want: []int{1, 2}},
		{name: "w1-failpoint-chunk-tail", workers: 1, staging: 4 * SegmentBytes, failpoint: [2]uint64{8, 8}, want: []int{7}},
		{name: "w1-hook", workers: 1, staging: 3 * SegmentBytes, zero: []int{0, 5, 6, 7, 20}, want: []int{0, 5, 6, 7, 20}},
		{name: "w3-hook", workers: 3, staging: 2 * SegmentBytes, zero: []int{0, 3, 4, 9, 17}, want: []int{0, 3, 4, 9, 17}},
		{name: "w3-failpoint", workers: 3, staging: 2048, failpoint: [2]uint64{4, 6}},
	}
	const seed, kept = 7, 24 // segments read from each stream
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.failpoint[0] != 0 {
				if !faultinject.Available() {
					t.Skip("faultinject compiled out")
				}
				t.Cleanup(faultinject.Reset)
				faultinject.ArmRange(FailpointSegmentCorrupt, tc.failpoint[0], tc.failpoint[1])
			}
			ref := domainOne(t, GRAIN, seed, (kept+16)*SegmentBytes)
			zero := map[string]bool{}
			for _, i := range tc.zero {
				zero[string(ref[i*SegmentBytes:(i+1)*SegmentBytes])] = true
			}
			checker := health.NewChecker(health.Config{})
			s, err := NewStream(GRAIN, seed, StreamConfig{
				Workers: tc.workers, StagingBytes: tc.staging,
				Health: func(seg []byte) error {
					if zero[string(seg)] {
						clear(seg)
					}
					return checker.Check(seg)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			got := make([]byte, kept*SegmentBytes)
			if _, err := io.ReadFull(s, got); err != nil {
				t.Fatal(err)
			}
			dropped := droppedSegments(t, ref, got)
			if tc.want != nil && !slices.Equal(dropped, tc.want) {
				t.Fatalf("stream lacks segments %v, want exactly %v", dropped, tc.want)
			}
			if fired := faultinject.Fired(FailpointSegmentCorrupt); tc.want == nil && uint64(len(dropped)) != fired {
				t.Fatalf("stream lacks segments %v, want the %d the failpoint zeroed", dropped, fired)
			}
			if st := s.Stats(); st.HealthFailures < uint64(len(dropped)) {
				t.Fatalf("HealthFailures = %d, but %d segments were skipped", st.HealthFailures, len(dropped))
			}
			if cs := checker.Stats(); cs.Failures[health.RCT]+cs.Failures[health.Monobit]+cs.Failures[health.LongRun] == 0 {
				t.Fatalf("checker did not attribute the corruption: %+v", cs)
			}
		})
	}
}

// The core.segment.corrupt failpoint armed on the Nth produced segment
// must trip the checker, and the segment is skipped, never delivered.
func TestFailpointSegmentCorrupt(t *testing.T) {
	if !faultinject.Available() {
		t.Skip("faultinject compiled out")
	}
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(FailpointSegmentCorrupt, 2)

	checker := health.NewChecker(health.Config{})
	s, err := NewStream(TRIVIUM, 99, StreamConfig{
		Workers: 1, StagingBytes: 2048, Health: checker.Check,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out := make([]byte, 6*SegmentBytes)
	if _, err := io.ReadFull(s, out); err != nil {
		t.Fatal(err)
	}
	if got := faultinject.Fired(FailpointSegmentCorrupt); got != 1 {
		t.Fatalf("failpoint fired %d times, want 1", got)
	}
	if st := s.Stats(); st.HealthFailures != 1 {
		t.Fatalf("stats %+v, want exactly one failure", st)
	}
	ref := domainOne(t, TRIVIUM, 99, 7*SegmentBytes)
	if want := append(ref[:SegmentBytes:SegmentBytes], ref[2*SegmentBytes:]...); !bytes.Equal(out, want) {
		t.Fatal("stream is not the domain-1 stream less its second segment")
	}
	if cs := checker.Stats(); cs.Failures[health.RCT]+cs.Failures[health.Monobit]+cs.Failures[health.LongRun] == 0 {
		t.Fatalf("checker did not attribute the corruption: %+v", cs)
	}
}

// A hook that condemns everything must end the stream with its error —
// wrapped, after every byte before the condemned run — instead of
// livelocking the workers.
func TestHealthHookUnrecoverableBudget(t *testing.T) {
	reject := &health.Failure{Test: health.Monobit}
	for _, tc := range []struct {
		workers, staging, good int // good = segments the hook passes first
	}{
		{workers: 1, staging: 2048, good: 0},
		{workers: 1, staging: 3 * SegmentBytes, good: 5},
		{workers: 3, staging: 2048, good: 0},
		{workers: 3, staging: 2 * SegmentBytes, good: 7},
	} {
		ref := domainOne(t, MICKEY, 5, tc.good*SegmentBytes)
		s, err := NewStream(MICKEY, 5, StreamConfig{
			Workers: tc.workers, StagingBytes: tc.staging,
			Health: func(seg []byte) error {
				if bytes.Contains(ref, seg) {
					return nil
				}
				return reject
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		var got []byte
		var rerr error
		go func() {
			defer close(done)
			got, rerr = io.ReadAll(s)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			s.Close()
			t.Fatalf("%+v: Read hangs on an always-failing hook", tc)
		}
		var f *health.Failure
		if !errors.As(rerr, &f) || f != reject {
			t.Fatalf("%+v: Read error = %v, want one wrapping the hook's failure", tc, rerr)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("%+v: delivered %d bytes before the error, want the %d healthy ones", tc, len(got), len(ref))
		}
		if _, err := s.Read(make([]byte, 1)); !errors.Is(err, rerr) {
			t.Fatalf("%+v: a later Read returned %v, want the same error", tc, err)
		}
		if st := s.Stats(); st.HealthFailures < maxCondemnedRun {
			t.Fatalf("%+v: HealthFailures = %d, want ≥ %d", tc, st.HealthFailures, maxCondemnedRun)
		}
		s.Close()
	}
}

// Satellite gate: the first 64 segments of every algorithm at every
// supported lane width must pass the default online health tests, so an
// engine regression that degrades output quality fails tier-1 fast.
func TestHealthGateAcrossLaneWidths(t *testing.T) {
	const segments = 64
	for _, alg := range Algorithms {
		for _, lanes := range SupportedLanes {
			checker := health.NewChecker(health.Config{})
			g, err := NewGeneratorLanes(alg, 1234, lanes)
			if err != nil {
				t.Fatalf("%v lanes=%d: %v", alg, lanes, err)
			}
			seg := make([]byte, SegmentBytes)
			for i := 0; i < segments; i++ {
				if _, err := g.Read(seg); err != nil {
					t.Fatalf("%v lanes=%d: %v", alg, lanes, err)
				}
				if err := checker.Check(seg); err != nil {
					t.Errorf("%v lanes=%d segment %d: %v", alg, lanes, i, err)
				}
			}
			if st := checker.Stats(); st.Segments != segments || st.Total() != 0 {
				t.Errorf("%v lanes=%d: checker stats %+v", alg, lanes, st)
			}
		}
	}
}
