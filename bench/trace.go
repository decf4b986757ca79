package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary.
type span struct {
	Layer    string        `json:"layer"` // "router", "server" or "lib"
	Endpoint string        `json:"endpoint,omitempty"`
	URI      string        `json:"uri,omitempty"`
	Start    time.Duration `json:"start_ns"` // since the tracer was made
	End      time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanCap bounds the spans a tracer keeps between two takes. It keeps
// the newest ones, so memory stays flat at tens of thousands of requests
// per second while every request still pays the recording cost.
const spanCap = 1 << 16

// tracer keeps spans in memory while on; they are written out, if at
// all, when the run ends. A nil tracer records nothing.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int // oldest span once spans is full
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active reports whether spans are being recorded.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// since converts a wall-clock instant to the tracer's time base.
func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < spanCap {
		t.spans = append(t.spans, s)
	} else {
		t.spans[t.next] = s
		t.next = (t.next + 1) % spanCap
	}
	t.mu.Unlock()
}

// take returns the kept spans, oldest first, and empties the tracer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.spans)
	out := append(t.spans[t.next:n:n], t.spans[:t.next]...)
	t.spans, t.next = nil, 0
	return out
}

// wrap times every request h serves as a span of the given layer. The
// original ResponseWriter is passed through untouched, so http.Flusher
// (which /stream and the router's relay depend on) keeps working.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(span{Layer: layer, Endpoint: endpointOf(r), URI: r.RequestURI,
			Start: t.since(start), End: t.since(time.Now())})
	})
}

// writeSpans saves spans as JSON.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// endpoints are the serving paths the per-endpoint handler metrics name.
var endpoints = []string{"bytes", "bytes-hex", "stream-pooled", "stream-addressed", "stream-lease", "lease-create"}

// endpointOf classifies a request the way the daemon dispatches it.
func endpointOf(r *http.Request) string {
	q := r.URL.Query()
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/lease":
		return "lease-create"
	case r.URL.Path == "/bytes":
		if v := q.Get("hex"); v != "" && v != "0" && v != "false" {
			return "bytes-hex"
		}
		return "bytes"
	case r.URL.Path == "/stream":
		if q.Has("lease") {
			return "stream-lease"
		}
		if q.Has("segment") || q.Has("domain") || q.Has("off") || q.Has("lanes") {
			return "stream-addressed"
		}
		return "stream-pooled"
	}
	return "other"
}
