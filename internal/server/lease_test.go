package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// post issues a body-less POST and decodes the lease document when the
// response is JSON.
func post(t *testing.T, url string) (int, leaseDoc, []byte) {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc leaseDoc
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("lease response is not JSON (%v): %s", err, body)
		}
	}
	return resp.StatusCode, doc, body
}

// The lease surface: POST /lease allocates distinct domains with
// validated windows, GET /lease/{id} resolves any structurally valid
// token, and the failure modes are specific.
func TestLeaseAPI(t *testing.T) {
	cfg := Config{
		Seed:             9,
		Algorithms:       []core.Algorithm{core.GRAIN, core.MICKEY},
		MaxLeaseSegments: 16,
	}
	_, ts := newTestServer(t, cfg)

	status, doc, body := post(t, ts.URL+"/lease?alg=grain&segments=4")
	if status != http.StatusCreated {
		t.Fatalf("create: status %d (%s)", status, body)
	}
	if doc.Algorithm != "grain" || doc.Segments != 4 || doc.SegmentBytes != core.SegmentBytes {
		t.Fatalf("lease doc %+v", doc)
	}
	if doc.Bytes != 4*core.SegmentBytes {
		t.Errorf("lease bytes %d, want %d", doc.Bytes, 4*core.SegmentBytes)
	}
	if doc.Domain < leaseDomainBase {
		t.Errorf("lease domain %d inside the pooled-domain range", doc.Domain)
	}
	if !strings.HasPrefix(doc.StreamPath, "/stream?lease=") {
		t.Errorf("stream path %q", doc.StreamPath)
	}

	// Each lease gets its own domain: concurrent holders never overlap.
	_, doc2, _ := post(t, ts.URL+"/lease?alg=grain&segments=4")
	if doc2.Domain == doc.Domain {
		t.Error("two leases share a domain")
	}

	// The window defaults to the configured cap.
	status, doc3, _ := post(t, ts.URL+"/lease?alg=mickey")
	if status != http.StatusCreated || doc3.Segments != 16 {
		t.Fatalf("default window: status %d, %d segments, want cap 16", status, doc3.Segments)
	}

	for _, tc := range []struct {
		name string
		path string
		want int
	}{
		{"over window cap", "/lease?alg=grain&segments=17", http.StatusRequestEntityTooLarge},
		{"zero segments", "/lease?alg=grain&segments=0", http.StatusBadRequest},
		{"unknown alg", "/lease?alg=nope", http.StatusBadRequest},
	} {
		if status, _, _ := post(t, ts.URL+tc.path); status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.want)
		}
	}

	// Tokens resolve statelessly.
	status, body, _ = get(t, ts.URL+"/lease/"+doc.ID)
	if status != http.StatusOK {
		t.Fatalf("resolve: status %d", status)
	}
	var echo leaseDoc
	if err := json.Unmarshal(body, &echo); err != nil || echo != doc {
		t.Fatalf("resolved doc %+v != issued doc %+v (err %v)", echo, doc, err)
	}
	if status, _, _ := get(t, ts.URL+"/lease/garbage!"); status != http.StatusBadRequest {
		t.Error("garbage token did not 400")
	}
	unserved := Lease{Alg: core.TRIVIUM, Domain: leaseDomainBase + 1, Segments: 2}.id()
	if status, _, _ := get(t, ts.URL+"/lease/"+unserved); status != http.StatusNotFound {
		t.Error("token for an unserved algorithm did not 404")
	}

	_, mbody, _ := get(t, ts.URL+"/metrics")
	if got := metricValue(t, mbody, "bsrngd_leases_issued_total"); got != 3 {
		t.Errorf("leases_issued_total = %v, want 3", got)
	}
}

// Lease domains are allocated per algorithm: one algorithm's lease
// sequence does not depend on how other algorithms' lease requests
// interleave with it, so multi-algorithm runs hand out the same domains
// whatever the arrival order.
func TestLeaseDomainsPerAlgorithm(t *testing.T) {
	domains := func(order ...string) map[string]uint64 {
		_, ts := newTestServer(t, Config{Seed: 4,
			Algorithms: []core.Algorithm{core.GRAIN, core.TRIVIUM}})
		out := map[string]uint64{}
		for _, alg := range order {
			status, doc, body := post(t, ts.URL+"/lease?alg="+alg+"&segments=2")
			if status != http.StatusCreated {
				t.Fatalf("create %s: status %d (%s)", alg, status, body)
			}
			out[alg] = doc.Domain
		}
		return out
	}
	a := domains("grain", "trivium")
	b := domains("trivium", "grain")
	if a["grain"] != b["grain"] || a["trivium"] != b["trivium"] {
		t.Fatalf("lease domains depend on arrival order: %v vs %v", a, b)
	}
	if a["grain"] != leaseDomainBase+1 {
		t.Errorf("first grain lease domain %d, want %d", a["grain"], leaseDomainBase+1)
	}
}

// Satellite differential: a lease window served over /stream survives a
// daemon restart and is byte-identical — to itself, to the library
// SegmentReader, when resumed mid-segment, and with a lanes= parameter,
// which is ignored — because the token addresses the deterministic
// (seed, domain, segment) space, not server state.
func TestLeaseStreamRestartAndLanesDifferential(t *testing.T) {
	const seed = 77
	boot := func() (*httptest.Server, func()) {
		s, err := New(Config{Seed: seed, Algorithms: []core.Algorithm{core.TRIVIUM}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		return ts, func() {
			ts.Close()
			s.Shutdown(context.Background())
		}
	}

	// First daemon life: issue the lease and pull the whole window.
	tsA, closeA := boot()
	status, doc, body := post(t, tsA.URL+"/lease?alg=trivium&segments=4")
	if status != http.StatusCreated {
		t.Fatalf("lease create: status %d (%s)", status, body)
	}
	status, full, hdr := get(t, tsA.URL+doc.StreamPath)
	if status != http.StatusOK {
		t.Fatalf("lease stream: status %d", status)
	}
	if got := hdr.Get("X-Bsrng-Mode"); got != "lease" {
		t.Errorf("mode header %q, want lease", got)
	}
	// n defaulted to the remaining window: the full lease in one pull.
	if len(full) != int(doc.Bytes) {
		t.Fatalf("lease stream served %d bytes, want the %d-byte window", len(full), doc.Bytes)
	}
	closeA() // daemon restarts; the token outlives it

	// The library defines the expected bytes for anyone holding the seed.
	src, err := core.NewSegmentReader(core.TRIVIUM, seed, doc.Domain, 0,
		doc.StartSegment*core.SegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, doc.Bytes)
	if _, err := io.ReadFull(src, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, want) {
		t.Fatal("lease window diverges from core.NewSegmentReader")
	}

	tsB, closeB := boot()
	defer closeB()
	if status, _, _ := get(t, tsB.URL+"/lease/"+doc.ID); status != http.StatusOK {
		t.Fatal("lease token did not survive the restart")
	}
	status, got, _ := get(t, tsB.URL+doc.StreamPath+"&lanes=512")
	if status != http.StatusOK || !bytes.Equal(got, full) {
		t.Fatalf("restarted window (status %d) not byte-identical", status)
	}

	// Resume mid-segment after a simulated disconnect: off is absolute
	// into the lease window, landing inside segment 1.
	const off = core.SegmentBytes + 777
	status, tail, hdr := get(t, fmt.Sprintf("%s%s&off=%d", tsB.URL, doc.StreamPath, off))
	if status != http.StatusOK {
		t.Fatalf("resume status %d", status)
	}
	if hdr.Get("X-Bsrng-Mode") != "lease" {
		t.Errorf("resume mode header %q", hdr.Get("X-Bsrng-Mode"))
	}
	if !bytes.Equal(tail, full[off:]) {
		t.Fatalf("resume from offset %d diverges from the original window", off)
	}
	// An n past the remaining window clamps to it (resume semantics).
	status, clamped, _ := get(t, fmt.Sprintf("%s%s&off=%d&n=%d", tsB.URL, doc.StreamPath, off, doc.Bytes))
	if status != http.StatusOK || len(clamped) != int(doc.Bytes)-off {
		t.Fatalf("clamped resume served %d bytes, want %d", len(clamped), int(doc.Bytes)-off)
	}
}
