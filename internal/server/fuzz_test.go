package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
)

// FuzzServeQuery feeds raw query strings to /bytes and /stream of a
// two-algorithm server. Whatever the query, the response status is one
// the endpoints document — never a 500, never a panic — and a binary 200
// carries exactly the n the parser resolved. An addressed or lease 200
// is the HTTP leg of the canonical-stream invariant: its body equals
// core.NewSegmentReader at the parsed (Domain, Offset), byte for byte.
func FuzzServeQuery(f *testing.F) {
	const seed = 5
	lease := Lease{Alg: core.GRAIN, Domain: leaseDomainBase + 1, Segments: 2}.id()
	for _, seed := range []string{
		"",
		"alg=grain&n=100",
		"alg=AES&n=17&hex=1",
		"alg=grain&segment=3&off=5&n=4000&lanes=256",
		"alg=grain&domain=7&off=2047",
		"lease=" + lease + "&off=100",
		"lease=" + lease + "&n=999999999",
		"lease=" + lease + "&off=4096",
		"alg=chaotic(grain)&segment=1",
		"alg=mickey&n=0",
		"alg=grain&n=70000",
		"alg=grain&segment=1099511627776",
		"alg=grain&off=%zz&n=-1",
	} {
		f.Add(seed)
	}

	s, err := New(Config{
		Seed:            seed,
		Algorithms:      []core.Algorithm{core.GRAIN, core.AESCTR},
		MaxRequestBytes: 64 << 10,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()

	f.Fuzz(func(t *testing.T, raw string) {
		for _, endpoint := range []string{EndpointBytes, EndpointStream} {
			req := httptest.NewRequest(http.MethodGet, "/"+endpoint, nil)
			req.URL.RawQuery = raw
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)

			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
				http.StatusRequestedRangeNotSatisfiable, http.StatusTooManyRequests,
				http.StatusServiceUnavailable:
			default:
				t.Fatalf("/%s?%s: status %d (%s)", endpoint, raw, rec.Code, rec.Body.Bytes())
			}
			if rec.Code != http.StatusOK {
				continue
			}
			q, herr := ParseQuery(req, endpoint, s.limits)
			if herr != nil {
				t.Fatalf("/%s?%s: served 200, but the parser refuses it: %s", endpoint, raw, herr.msg)
			}
			want := q.N
			if q.Hex {
				want = 2*q.N + 1 // hex digits plus the trailing newline
			}
			if got := int64(rec.Body.Len()); got != want {
				t.Fatalf("/%s?%s: %d body bytes, want %d", endpoint, raw, got, want)
			}
			if q.Mode != ModeAddressed && q.Mode != ModeLease {
				continue
			}
			src, err := core.NewSegmentReader(q.Alg, seed, q.Domain, core.DefaultLanes, q.Offset)
			if err != nil {
				t.Fatalf("/%s?%s: served 200, but the library refuses (%v, %d, %d): %v", endpoint, raw, q.Alg, q.Domain, q.Offset, err)
			}
			lib := make([]byte, q.N)
			src.Read(lib)
			if !bytes.Equal(rec.Body.Bytes(), lib) {
				t.Fatalf("/%s?%s: body diverges from core.NewSegmentReader(%v, domain %d, offset %d)", endpoint, raw, q.Alg, q.Domain, q.Offset)
			}
		}
	})
}

// FuzzLeaseToken: DecodeLeaseToken never panics, and every token it
// accepts re-encodes to a canonical token naming the same lease. The
// canonical form, not the input, is what must be stable: the decoder
// accepts aliases (an algorithm spelled "AES", a zero-padded domain),
// which all re-encode to the one token POST /lease would have issued.
func FuzzLeaseToken(f *testing.F) {
	for _, l := range []Lease{
		{Alg: core.GRAIN, Domain: leaseDomainBase + 1, Segments: 2},
		{Alg: core.Chaotic(core.GRAIN), Domain: 7, StartSegment: 1 << 39, Segments: 1 << 30},
	} {
		f.Add(l.id())
	}
	for _, raw := range []string{"", "@@@", "MXxhZXN8MDA3fDB8MQ", "MnxncmFpbnwxfDB8MQ", "MXxncmFpbnwxfDB8MA"} {
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, tok string) {
		l, err := DecodeLeaseToken(tok)
		if err != nil {
			return
		}
		canon := l.id()
		back, err := DecodeLeaseToken(canon)
		if err != nil {
			t.Fatalf("token %q decodes to %+v, whose re-encoding %q is refused: %v", tok, l, canon, err)
		}
		if back != l {
			t.Fatalf("token %q decodes to %+v, its re-encoding to %+v", tok, l, back)
		}
		if again := back.id(); again != canon {
			t.Fatalf("re-encoding is not canonical: %q then %q", canon, again)
		}
	})
}
