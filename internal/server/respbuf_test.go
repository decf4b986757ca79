package server

import (
	"bytes"
	"encoding/hex"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestResponseBufferPoolReuse pins the chunk buffer pooling of the
// response path: the first request warms the pool, later ones reuse it,
// and the reuse counter is exported on /metrics.
func TestResponseBufferPoolReuse(t *testing.T) {
	cfg := Config{Seed: 3}
	s, ts := newTestServer(t, cfg)

	for i := 0; i < 3; i++ {
		if status, _, _ := get(t, ts.URL+"/stream?alg=grain&segment=1&n=64"); status != http.StatusOK {
			t.Fatalf("request %d status %d", i, status)
		}
	}
	// Require only that reuse happened, not an exact count.
	if got := s.respBufReused.Value(); got < 1 {
		t.Fatalf("response buffer reuse counter = %d after 3 addressed streams, want ≥ 1", got)
	}
	status, body, _ := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	if !strings.Contains(string(body), "bsrngd_response_buffers_reused_total") {
		t.Fatal("metrics missing bsrngd_response_buffers_reused_total")
	}
}

// TestMixedHexBinaryContinuation alternates hex and binary requests on
// one pooled source and checks the concatenated payloads are the
// canonical stream — the hex writer wrapper advances the source's cursor
// by exactly n, like the binary path (n is never segment-aligned here).
func TestMixedHexBinaryContinuation(t *testing.T) {
	cfg := Config{Seed: 11}
	_, ts := newTestServer(t, cfg)

	var got bytes.Buffer
	for i := 0; i < 4; i++ {
		if i%2 == 0 {
			status, body, _ := get(t, ts.URL+"/bytes?alg=trivium&n=1500")
			if status != http.StatusOK {
				t.Fatalf("binary request %d status %d", i, status)
			}
			got.Write(body)
		} else {
			status, body, _ := get(t, ts.URL+"/bytes?alg=trivium&n=700&hex=1")
			if status != http.StatusOK {
				t.Fatalf("hex request %d status %d", i, status)
			}
			raw, err := hex.DecodeString(strings.TrimSuffix(string(body), "\n"))
			if err != nil {
				t.Fatalf("hex request %d: %v", i, err)
			}
			got.Write(raw)
		}
	}

	ref, err := core.NewStream(core.TRIVIUM, 11, core.StreamConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := make([]byte, got.Len())
	if _, err := ref.Read(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("mixed hex/binary requests diverge from canonical stream")
	}
}
