package server

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
)

// The served bytes depend on no lane width. lanes=, which once chose
// one, is ignored like any unknown parameter: beside segment= the body
// is the same window's body without it, whatever the value, and alone
// it leaves a /stream pooled.
func TestBytesWidthIndependence(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 99, Algorithms: []core.Algorithm{core.GRAIN}})
	const window = "/stream?alg=grain&domain=3&segment=5&off=100&n=5000"
	status, want, _ := get(t, ts.URL+window)
	if status != http.StatusOK {
		t.Fatalf("window: status %d", status)
	}
	for _, v := range []string{"64", "65", "256", "x", ""} {
		status, got, hdr := get(t, ts.URL+window+"&lanes="+v)
		if status != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("lanes=%q: status %d, body differs from the window without lanes=", v, status)
		}
		if mode := hdr.Get("X-Bsrng-Mode"); mode != ModeAddressed {
			t.Errorf("lanes=%q: mode %q, want %s", v, mode, ModeAddressed)
		}
	}

	status, _, hdr := get(t, ts.URL+"/stream?alg=grain&lanes=64&n=4096")
	if status != http.StatusOK || hdr.Get("X-Bsrng-Mode") != ModePooled {
		t.Errorf("/stream with lanes= alone: status %d, mode %q, want 200 %s", status, hdr.Get("X-Bsrng-Mode"), ModePooled)
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
