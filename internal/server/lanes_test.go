package server

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// The service contract extends the core one: the bytes served for a
// given (alg, seed) must not depend on the engine lane width.
func TestBytesWidthIndependence(t *testing.T) {
	const path = "/bytes?alg=grain&n=8192"
	fetch := func(lanes int) []byte {
		cfg := Config{Seed: 99, Algorithms: []core.Algorithm{core.GRAIN},
			Lanes: lanes}
		_, ts := newTestServer(t, cfg)
		status, body, _ := get(t, ts.URL+path)
		if status != http.StatusOK {
			t.Fatalf("lanes=%d: status %d", lanes, status)
		}
		return body
	}
	want := fetch(64)
	for _, lanes := range []int{256, 512} {
		if got := fetch(lanes); !bytes.Equal(got, want) {
			t.Errorf("lanes=%d: served bytes diverge from 64-lane service", lanes)
		}
	}
}

// A server built at a wide lane width must survive concurrent /bytes
// traffic; run under -race this pins down the engines' sharing discipline.
func TestWideLaneConcurrentRequests(t *testing.T) {
	cfg := Config{Seed: 5, Algorithms: []core.Algorithm{core.TRIVIUM},
		Lanes: 256}
	_, ts := newTestServer(t, cfg)

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body, _ := get(t, ts.URL+"/bytes?alg=trivium&n=16384")
			if status != http.StatusOK {
				errs <- fmt.Errorf("status %d", status)
				return
			}
			if len(body) != 16384 {
				errs <- fmt.Errorf("got %d bytes", len(body))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// An invalid Lanes value must be rejected at construction, not at the
// first request.
func TestConfigRejectsBadLanes(t *testing.T) {
	for _, lanes := range []int{-1, 1, 63, 128, 1024} {
		if _, err := New(Config{Lanes: lanes}); err == nil {
			t.Errorf("Lanes=%d accepted", lanes)
		}
	}
}

// The 400 response for an unknown algorithm must name the valid set so
// a client can self-correct, and parsing must be case-insensitive.
func TestBadAlgorithmResponseListsValidSet(t *testing.T) {
	cfg := Config{Seed: 1}
	_, ts := newTestServer(t, cfg)

	status, body, _ := get(t, ts.URL+"/bytes?alg=rot13&n=16")
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", status)
	}
	for _, name := range core.AlgorithmNames {
		if !strings.Contains(string(body), name) {
			t.Errorf("400 body %q does not mention %q", body, name)
		}
	}

	// Case-insensitive algorithm names serve normally.
	status, _, hdr := get(t, ts.URL+"/bytes?alg=MICKEY&n=16")
	if status != http.StatusOK {
		t.Errorf("uppercase alg status %d, want 200", status)
	}
	if got := hdr.Get("X-Bsrng-Algorithm"); got != "mickey" {
		t.Errorf("algorithm header %q, want mickey", got)
	}
}
