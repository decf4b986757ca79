package main

import (
	"bytes"
	"errors"
	"io"
	"time"

	"repro/internal/core"
)

// libOpBytes is what one library operation writes: one WriteTo of
// 1 MiB into a counting sink.
const libOpBytes = 1 << 20

// libSlice is the time slice lib-bulk gives one algorithm before
// rotating to the next. The host has slow phases of seconds to tens of
// seconds; short slices spread every algorithm over the whole window, so
// each one meets the fast stretches too. A slice lasts until it has also
// timed libPairs pairs of writes, which only mickey, about 16 times
// slower than the other engines, needs longer than libSlice for.
const (
	libSlice = 100 * time.Millisecond
	libPairs = 4
)

// libInstances is how many streams of each algorithm lib-bulk keeps; the
// slices of an algorithm take them in turn. A single stream can run
// slower than usual for a whole run while streams measured in between run
// at full speed (README.md, "Bounds"); several instances keep one such
// stream from setting its algorithm's rate.
const libInstances = 3

// errBudgetSpent ends Stream.WriteTo once a sink has taken its bytes.
var errBudgetSpent = errors.New("bench: byte budget spent")

// budgetSink counts bytes without copying them and fails once left bytes
// have been written — a short final write, so the stream's cursor
// advances by exactly the budget.
type budgetSink struct{ left int64 }

func (s *budgetSink) Write(p []byte) (int, error) {
	if int64(len(p)) >= s.left {
		k := s.left
		s.left = 0
		return int(k), errBudgetSpent
	}
	s.left -= int64(len(p))
	return len(p), nil
}

// libSystem is lib-bulk's system: libInstances 1-worker, 64-lane
// core.Streams per algorithm, health off (the library default).
type libSystem struct {
	streams [][]*core.Stream // per algorithm
	tr      *tracer
}

func setupLib(seed uint64, ref [][]byte, tr *tracer, tl *tally) (system, error) {
	l := &libSystem{tr: tr}
	buf := make([]byte, refBytes)
	l.streams = make([][]*core.Stream, len(algs))
	for i, alg := range algs {
		for k := 0; k < libInstances; k++ {
			s, err := core.NewStream(alg, seed, core.StreamConfig{Workers: 1, Lanes: core.DefaultLanes})
			if err != nil {
				l.close()
				return nil, err
			}
			l.streams[i] = append(l.streams[i], s)
			tl.attempted++
			if _, err := io.ReadFull(s, buf); err != nil {
				tl.fail("lib-bulk: reading %v: %v", alg, err)
			} else if !bytes.Equal(buf, ref[i]) {
				tl.fail("lib-bulk: first %d bytes of a %v stream differ from NewSegmentReader", refBytes, alg)
			}
		}
	}
	return l, nil
}

// write is one operation: 1 MiB from s, a stream of algorithm a.
func (l *libSystem) write(a int, s *core.Stream, w *window) (time.Duration, bool) {
	w.tally.attempted++
	sink := budgetSink{left: libOpBytes}
	start := time.Now()
	k, err := s.WriteTo(&sink)
	end := time.Now()
	if !errors.Is(err, errBudgetSpent) || k != libOpBytes {
		w.tally.fail("lib-bulk: %v WriteTo wrote %d bytes: %v", algs[a], k, err)
		return 0, false
	}
	if l.tr.active() {
		l.tr.add(span{Layer: "lib", Endpoint: algLabel(a), Start: l.tr.since(start), End: l.tr.since(end)})
	}
	return end.Sub(start), true
}

// measure rotates the algorithms in libSlice slices. A stream's worker
// stages up to four 64 KiB chunks ahead while the stream waits for its
// next slice, so the first write of each slice drains them untimed. The
// timed writes that follow are paired, and each pair is one unit of the
// window: 2 MiB, 32 chunks, so that chunks the worker staged while the
// caller was descheduled lift a unit's rate by an eighth at most.
func (l *libSystem) measure(d time.Duration) window {
	w := newWindow()
	start := time.Now()
	for i := 0; i < len(algs) || time.Since(start) < d; i++ {
		a := i % len(algs)
		s := l.streams[a][i/len(algs)%libInstances]
		end := time.Now().Add(min(libSlice, d/time.Duration(len(algs))))
		l.write(a, s, &w)
		var pending time.Duration
	slice:
		for pairs := 0; pairs < libPairs || time.Now().Before(end); {
			dur, ok := l.write(a, s, &w)
			switch {
			case !ok:
				break slice // counted in the tally; a failing stream ends its slice
			case pending == 0:
				pending = dur
			default:
				w.add(a, 2*libOpBytes, pending+dur, 2, pending+dur)
				pending = 0
				pairs++
			}
		}
	}
	w.elapsed = time.Since(start)
	return w
}

func (l *libSystem) verify(*tally) {}

func (l *libSystem) close() {
	for _, ss := range l.streams {
		for _, s := range ss {
			s.Close()
		}
	}
}
