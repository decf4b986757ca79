package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	bsrng "repro"
)

func TestRunRawMatchesLibrary(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "grain", 5, 1000, 1, false); err != nil {
		t.Fatal(err)
	}
	g, _ := bsrng.NewSegmentReader(bsrng.GRAIN, 5, 1, 64, 0)
	want := make([]byte, 1000)
	g.Read(want)
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("CLI output diverges from the library's domain-1 stream")
	}
}

func TestRunHex(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "mickey", 1, 16, 1, true); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if len(s) != 33 || s[32] != '\n' { // 32 hex chars + newline
		t.Fatalf("unexpected hex output %q", s)
	}
	if _, err := hex.DecodeString(s[:32]); err != nil {
		t.Fatalf("not hex: %v", err)
	}
}

func TestRunParallelStreamDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(&a, "trivium", 9, 100000, 3, false); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, "trivium", 9, 100000, 3, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("parallel CLI output is not deterministic")
	}
	var one bytes.Buffer
	if err := run(&one, "trivium", 9, 100000, 1, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), a.Bytes()) {
		t.Fatal("-workers 1 output diverges from -workers 3")
	}
}

// failWriter accepts limit bytes, then errors — a full disk / closed
// pipe stand-in.
type failWriter struct {
	limit int
	n     int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		k := w.limit - w.n
		w.n = w.limit
		return k, errors.New("disk full")
	}
	w.n += len(p)
	return len(p), nil
}

// A write failure surfaced only at flush time must still be reported:
// the old deferred-Flush code dropped it and exited 0.
func TestRunReportsFlushError(t *testing.T) {
	// 1000 bytes fit inside the 1 MiB bufio buffer, so the underlying
	// write — and its error — happen at Flush.
	if err := run(&failWriter{limit: 100}, "grain", 5, 1000, 1, false); err == nil {
		t.Fatal("write error at flush time was swallowed")
	}
	// And an error mid-stream (larger than the buffer) is reported too.
	if err := run(&failWriter{limit: 100}, "grain", 5, 4<<20, 1, false); err == nil {
		t.Fatal("write error mid-stream was swallowed")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "nope", 1, 10, 1, false); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run(&out, "mickey", 1, -1, 1, false); err == nil {
		t.Error("negative byte count accepted")
	}
}

// The -lanes flag is gone: main refuses it like any unknown flag. The
// test runs main in a child process, since flag.Parse exits.
func TestMainRejectsLanes(t *testing.T) {
	if os.Getenv("BSRNG_TEST_MAIN") == "1" {
		os.Args = []string{"bsrng", "-lanes", "64", "-n", "16"}
		main()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestMainRejectsLanes$")
	cmd.Env = append(os.Environ(), "BSRNG_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
		!strings.Contains(string(out), "flag provided but not defined: -lanes") {
		t.Fatalf("bsrng -lanes 64: %v, output:\n%s", err, out)
	}
}
