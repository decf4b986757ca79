package server

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Segment leases pin a client to a deterministic window of the
// (seed, domain, segment) address space. A lease is not server state:
// the id is a self-describing token encoding (algorithm, domain, start
// segment, segment count), so GET /lease/{id} and /stream?lease= keep
// working across daemon restarts and on any replica sharing the seed —
// and anyone holding the seed can regenerate the leased window with
// core.NewSegmentReader and verify any sub-range byte-for-byte.
//
// POST /lease allocates each lease its own domain from a reserved range
// far above the pooled domain, starting at segment 0, so leased streams
// never overlap the pooled /bytes /stream traffic. Allocation is a
// boot-local counter per algorithm: after a restart new leases reuse
// domains (deterministically — the bytes are the same), while
// previously issued tokens stay valid forever.

const (
	// leaseDomainBase separates lease domains from the small domains
	// (pooled mode serves domain 1).
	leaseDomainBase = uint64(1) << 32
	// maxLeaseStartSegment bounds start segments (and /stream segment=)
	// so offset arithmetic stays far from uint64 wrap.
	maxLeaseStartSegment = uint64(1) << 40
	// maxLeaseSegmentsHard is the absolute per-lease segment bound;
	// Config.MaxLeaseSegments tightens it.
	maxLeaseSegmentsHard = uint64(1) << 30
	// leaseTokenVersion prefixes every encoded token.
	leaseTokenVersion = "1"
)

// maxAddressableBytes bounds client-supplied byte offsets.
const maxAddressableBytes = uint64(1) << 52

// Lease is a decoded lease token. Tokens are pure capabilities over the
// deterministic (alg, domain, segment) address space — no server state —
// so any tier holding a token can derive where its window lives;
// internal/cluster's router uses this to route lease traffic to the
// owning node.
type Lease struct {
	Alg          core.Algorithm
	Domain       uint64
	StartSegment uint64
	Segments     uint64
}

// Bytes is the lease window size in bytes.
func (l Lease) Bytes() uint64 { return l.Segments * core.SegmentBytes }

// id encodes the lease as a URL-safe, self-describing token.
func (l Lease) id() string {
	raw := fmt.Sprintf("%s|%s|%d|%d|%d",
		leaseTokenVersion, l.Alg, l.Domain, l.StartSegment, l.Segments)
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

// DecodeLeaseToken parses and validates a lease token without touching
// any server: the inverse of the encoding POST /lease hands out.
func DecodeLeaseToken(id string) (Lease, error) {
	raw, err := base64.RawURLEncoding.DecodeString(id)
	if err != nil {
		return Lease{}, fmt.Errorf("not base64url: %w", err)
	}
	parts := strings.Split(string(raw), "|")
	if len(parts) != 5 || parts[0] != leaseTokenVersion {
		return Lease{}, fmt.Errorf("want 5 fields of version %s", leaseTokenVersion)
	}
	alg, err := core.ParseAlgorithm(parts[1])
	if err != nil {
		return Lease{}, err
	}
	domain, err := strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return Lease{}, fmt.Errorf("bad domain: %w", err)
	}
	start, err := strconv.ParseUint(parts[3], 10, 64)
	if err != nil || start >= maxLeaseStartSegment {
		return Lease{}, fmt.Errorf("bad start segment %q", parts[3])
	}
	segs, err := strconv.ParseUint(parts[4], 10, 64)
	if err != nil || segs == 0 || segs > maxLeaseSegmentsHard {
		return Lease{}, fmt.Errorf("bad segment count %q", parts[4])
	}
	return Lease{Alg: alg, Domain: domain, StartSegment: start, Segments: segs}, nil
}

// leaseDoc is the JSON view of a lease returned by the lease endpoints.
type leaseDoc struct {
	ID           string `json:"id"`
	Algorithm    string `json:"alg"`
	Domain       uint64 `json:"domain"`
	StartSegment uint64 `json:"start_segment"`
	Segments     uint64 `json:"segments"`
	SegmentBytes int    `json:"segment_bytes"`
	Bytes        uint64 `json:"bytes"`
	// StreamPath is a ready-made resume URL: append &off=<bytes already
	// consumed> after a disconnect.
	StreamPath string `json:"stream_path"`
}

func (s *Server) leaseDoc(l Lease) leaseDoc {
	id := l.id()
	return leaseDoc{
		ID:           id,
		Algorithm:    l.Alg.String(),
		Domain:       l.Domain,
		StartSegment: l.StartSegment,
		Segments:     l.Segments,
		SegmentBytes: core.SegmentBytes,
		Bytes:        l.Bytes(),
		StreamPath:   "/stream?lease=" + url.QueryEscape(id),
	}
}

func writeLease(w http.ResponseWriter, status int, doc leaseDoc) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// handleLeaseCreate allocates a fresh lease: POST /lease?alg=&segments=.
func (s *Server) handleLeaseCreate(w http.ResponseWriter, r *http.Request) {
	q, herr := ParseQuery(r, EndpointLease, s.limits)
	if herr != nil {
		s.fail(w, EndpointLease, &q, herr)
		return
	}
	l := Lease{
		Alg:      q.Alg,
		Domain:   leaseDomainBase + s.engines[q.Alg].leases.Add(1),
		Segments: uint64(q.N),
	}
	s.leasesIssued.Inc()
	s.record(EndpointLease, &q, http.StatusCreated)
	writeLease(w, http.StatusCreated, s.leaseDoc(l))
}

// handleLeaseGet resolves a lease token: GET /lease/{id}. Tokens are
// stateless, so any structurally valid token naming a served algorithm
// resolves — including tokens issued before a restart.
func (s *Server) handleLeaseGet(w http.ResponseWriter, r *http.Request) {
	l, err := DecodeLeaseToken(r.PathValue("id"))
	if err != nil {
		s.leaseRequests.With("invalid", strconv.Itoa(http.StatusBadRequest)).Inc()
		http.Error(w, fmt.Sprintf("invalid lease token: %v", err), http.StatusBadRequest)
		return
	}
	if _, ok := s.engines[l.Alg]; !ok {
		s.leaseRequests.With(l.Alg.String(), strconv.Itoa(http.StatusNotFound)).Inc()
		http.Error(w, fmt.Sprintf("lease algorithm %v not served here", l.Alg), http.StatusNotFound)
		return
	}
	s.leaseRequests.With(l.Alg.String(), strconv.Itoa(http.StatusOK)).Inc()
	writeLease(w, http.StatusOK, s.leaseDoc(l))
}
