// Package chunkalias exercises the chunk-aliasing analyzer: the p
// argument of a Write method is live only for the handoff and must not
// be retained.
package chunkalias

var global []byte
var sink = make(chan []byte, 1)

type badWriter struct {
	last  []byte
	slots [4][]byte
}

func (w *badWriter) Write(p []byte) (int, error) {
	w.last = p            // want `\[chunk-aliasing\] the Write argument p is stored to field last`
	w.slots[0] = p[8:]    // want `\[chunk-aliasing\] the Write argument p is stored to field slots`
	global = append(p, 0) // want `\[chunk-aliasing\] the Write argument p is stored to package-level variable global`
	sink <- p             // want `\[chunk-aliasing\] the Write argument p is sent on a channel`
	go leak(p)            // want `\[chunk-aliasing\] the Write argument p is captured by a goroutine`
	return len(p), nil
}

func leak(p []byte) { _ = p }

// goodWriter uses p strictly within the call: reslicing, copying out and
// passing it onward are all fine.
type goodWriter struct {
	n    int
	kept []byte
}

func (w *goodWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	consume(p[1:])
	w.kept = append([]byte(nil), p...)
	return len(p), nil
}

func consume(p []byte) { _ = p }
