package server

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/core"
)

// Endpoints whose query strings ParseQuery reads. The names double as
// the router's endpoint label.
const (
	EndpointBytes  = "bytes"  // GET /bytes
	EndpointStream = "stream" // GET /stream
	EndpointLease  = "lease"  // POST /lease
)

// Modes of a parsed query: where its bytes come from.
const (
	// ModePooled is the next bytes of the algorithm's pooled source.
	ModePooled = "pooled"
	// ModeAddressed is a named window of the (seed, domain, segment)
	// address space.
	ModeAddressed = "addressed"
	// ModeLease is the window of a lease token, resumed at off=.
	ModeLease = "lease"
)

// Query is one parsed request of a bsrngd endpoint.
type Query struct {
	// Mode is ModePooled, ModeAddressed or ModeLease; /bytes and
	// POST /lease are always pooled.
	Mode string
	// Alg is the canonical algorithm (on lease mode, the token's).
	Alg core.Algorithm
	// Domain and Offset are the absolute address of the first byte:
	// the seed domain and the byte offset into it (addressed and lease
	// modes).
	Domain, Offset uint64
	// N is the byte count to serve, or the lease size in segments on
	// POST /lease.
	N int64
	// Hex selects hex-encoded output (/bytes only).
	Hex bool

	// label is the alg metric label the request is counted under.
	label string
}

// Limits are the server-side bounds ParseQuery enforces.
type Limits struct {
	// MaxBytes caps n (413 above it) and is /stream's default n.
	MaxBytes int64
	// MaxLeaseSegments caps segments= on POST /lease (413 above it) and
	// is its default.
	MaxLeaseSegments int
	// Served reports whether an algorithm named by alg= or by a lease
	// token is served; nil accepts every algorithm (the router, which
	// routes every query to some node).
	Served func(core.Algorithm) bool
}

// httpError is a deferred error response: status plus body message.
type httpError struct {
	status int
	msg    string
}

func badRequest(format string, args ...any) *httpError {
	return &httpError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

// ParseQuery is the one reader of a bsrngd query string. The handlers of
// /bytes, /stream and POST /lease parse through it, and so does the
// cluster router, which routes on the address it returns — so a
// request's owner and the bytes its node serves follow one grammar,
// keyed on the canonical algorithm name whatever spelling the client
// used.
//
// alg defaults to mickey. n defaults to 32 on /bytes; on /stream to the
// byte cap, or to the rest of the lease window when that is smaller
// (and a larger n is clamped to the window: resume semantics, not an
// error). segment=, domain= or off= make a /stream addressed;
// lease=<token>&off= resumes a lease window. Any other parameter, lanes=
// included, is ignored. An algorithm lim.Served
// rejects, named by alg= or by the lease token, is refused with 400. A
// refused query comes back with a non-nil *httpError and the Query
// parsed so far, whose Mode and label the refusal is counted under.
func ParseQuery(r *http.Request, endpoint string, lim Limits) (Query, *httpError) {
	v := r.URL.Query()
	q := Query{Mode: ModePooled, label: "invalid"}
	if h := v.Get("hex"); h != "" && h != "0" && h != "false" {
		if endpoint == EndpointStream {
			return q, badRequest("hex is not supported on /stream; use /bytes")
		}
		q.Hex = endpoint == EndpointBytes
	}

	window := int64(-1) // lease bytes left from the offset; -1 = no lease
	var off uint64
	if endpoint == EndpointStream {
		if s := v.Get("off"); s != "" {
			var err error
			off, err = strconv.ParseUint(s, 10, 64)
			if err != nil || off >= maxAddressableBytes {
				return q, badRequest("off must be a byte offset below 2^52")
			}
		}
		if tok := v.Get("lease"); tok != "" {
			q.Mode = ModeLease
			l, err := DecodeLeaseToken(tok)
			if err != nil {
				return q, badRequest("invalid lease token: %v", err)
			}
			if a := v.Get("alg"); a != "" {
				alg, err := core.ParseAlgorithm(a)
				if err != nil {
					return q, badRequest("%v", err)
				}
				if alg != l.Alg {
					return q, badRequest("alg=%s contradicts the lease's algorithm %s", a, l.Alg)
				}
			}
			if lim.Served != nil && !lim.Served(l.Alg) {
				return q, badRequest("algorithm %v not served", l.Alg)
			}
			if off >= l.Bytes() {
				return q, &httpError{http.StatusRequestedRangeNotSatisfiable,
					fmt.Sprintf("off %d is past the lease window (%d bytes)", off, l.Bytes())}
			}
			q.Alg, q.Domain = l.Alg, l.Domain
			q.Offset = l.StartSegment*core.SegmentBytes + off
			window = int64(l.Bytes() - off)
		}
	}

	if q.Mode != ModeLease {
		name := v.Get("alg")
		if name == "" {
			name = "mickey"
		}
		alg, err := core.ParseAlgorithm(name)
		if err != nil {
			return q, badRequest("%v", err)
		}
		q.Alg = alg
		if endpoint == EndpointBytes {
			q.label = alg.String() // /bytes counts an unserved algorithm under its name
		}
		if lim.Served != nil && !lim.Served(alg) {
			return q, badRequest("algorithm %v not served", alg)
		}
		if endpoint == EndpointLease {
			q.label = alg.String()
			return q, parseSegments(&q, v.Get("segments"), lim.MaxLeaseSegments)
		}
	}

	if endpoint == EndpointStream && q.Mode == ModePooled &&
		(v.Has("segment") || v.Has("domain") || v.Has("off")) {
		q.Mode = ModeAddressed
		if s := v.Get("domain"); s != "" {
			d, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return q, badRequest("domain must be an unsigned integer")
			}
			q.Domain = d
		}
		var seg uint64
		if s := v.Get("segment"); s != "" {
			var err error
			seg, err = strconv.ParseUint(s, 10, 64)
			if err != nil || seg >= maxLeaseStartSegment {
				return q, badRequest("segment must be an index below 2^40")
			}
		}
		q.Offset = seg*core.SegmentBytes + off
	}

	q.N = 32
	if endpoint == EndpointStream {
		// A /stream without n is "as much as one request may carry".
		q.N = lim.MaxBytes
		if window >= 0 && window < q.N {
			q.N = window
		}
	}
	if s := v.Get("n"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || n <= 0 {
			return q, badRequest("n must be a positive integer")
		}
		if n > lim.MaxBytes {
			return q, &httpError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("n exceeds per-request cap %d", lim.MaxBytes)}
		}
		q.N = n
		if window >= 0 && q.N > window {
			q.N = window
		}
	}
	q.label = q.Alg.String()
	return q, nil
}

// parseSegments reads POST /lease's segments= into q.N.
func parseSegments(q *Query, s string, limit int) *httpError {
	segs := uint64(limit)
	if s != "" {
		var err error
		segs, err = strconv.ParseUint(s, 10, 64)
		if err != nil || segs == 0 {
			return badRequest("segments must be a positive integer")
		}
		if segs > uint64(limit) {
			return &httpError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("segments exceeds per-lease cap %d", limit)}
		}
	}
	q.N = int64(segs)
	return nil
}
