package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestRunRouterUsage(t *testing.T) {
	if err := runRouter(":0", "", 0); err == nil {
		t.Error("-router without -ring accepted")
	}
	if err := runRouter(":0", t.TempDir()+"/missing.json", 0); err == nil {
		t.Error("missing ring file accepted")
	}
}

// The -lanes flag is gone: main refuses it like any unknown flag. The
// test runs main in a child process, since flag.Parse exits; the
// timeout bounds a child that would start serving instead.
func TestMainRejectsLanes(t *testing.T) {
	if os.Getenv("BSRNGD_TEST_MAIN") == "1" {
		os.Args = []string{"bsrngd", "-lanes", "64", "-addr", "127.0.0.1:0"}
		main()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestMainRejectsLanes$")
	cmd.Env = append(os.Environ(), "BSRNGD_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
		!strings.Contains(string(out), "flag provided but not defined: -lanes") {
		t.Fatalf("bsrngd -lanes 64: %v, output:\n%s", err, out)
	}
}

// SIGTERM with an open /stream drains rather than waits: the stream
// ends at its next chunk boundary with a clean end of body, short of
// its byte budget, and bsrngd exits 0 well inside -drain-timeout. The
// child process runs main; the parent reads the bound address from its
// log, reads the stream slowly and signals the child mid-stream.
func TestMainDrainsStreamOnSIGTERM(t *testing.T) {
	if os.Getenv("BSRNGD_TEST_MAIN") == "1" {
		os.Args = []string{"bsrngd", "-algs", "grain", "-drain-timeout", "10s", "-addr", "127.0.0.1:0"}
		main()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestMainDrainsStreamOnSIGTERM$")
	cmd.Env = append(os.Environ(), "BSRNGD_TEST_MAIN=1")
	logs, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The child's log: read up to the listening line here, and the rest
	// in the background until the child exits and the pipe closes.
	var childLog strings.Builder
	sc := bufio.NewScanner(logs)
	var addr string
	for addr == "" && sc.Scan() {
		childLog.WriteString(sc.Text() + "\n")
		if _, rest, ok := strings.Cut(sc.Text(), "bsrngd listening on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
	}
	if addr == "" {
		t.Fatalf("bsrngd never logged its address:\n%s", childLog.String())
	}
	type exit struct {
		err error
		at  time.Time
	}
	exited := make(chan exit, 1)
	go func() {
		for sc.Scan() {
			childLog.WriteString(sc.Text() + "\n")
		}
		at := time.Now()
		exited <- exit{cmd.Wait(), at}
	}()

	const budget = 16 << 20
	resp, err := http.Get(fmt.Sprintf("http://%s/stream?alg=grain&n=%d", addr, budget))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// slowRead reads n bytes 16 KiB at a time, pausing after each, and
	// stops early at the end of the body. At about 1 MB/s the budget
	// cannot finish inside -drain-timeout, so a daemon that waits for
	// the stream instead of ending it cuts the body when the timeout
	// expires.
	var total int64
	slowRead := func(n int64) error {
		for end := total + n; total < end; {
			k, err := io.CopyN(io.Discard, resp.Body, 16<<10)
			total += k
			if err != nil {
				return err
			}
			time.Sleep(16 * time.Millisecond)
		}
		return nil
	}
	if err := slowRead(256 << 10); err != nil {
		t.Fatalf("stream ended after %d bytes, before SIGTERM: %v", total, err)
	}

	signalled := time.Now()
	atSignal := total
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := slowRead(budget); err != io.EOF {
		t.Errorf("stream body ended with %v after %d bytes, want a clean EOF", err, total)
	}
	t.Logf("read %d bytes before SIGTERM, %d after, in %v", atSignal, total-atSignal, time.Since(signalled))
	if total >= budget {
		t.Errorf("stream served its full %d-byte budget despite SIGTERM", total)
	}
	select {
	case e := <-exited:
		if e.err != nil {
			t.Errorf("bsrngd exited with %v after SIGTERM, want 0", e.err)
		}
		if d := e.at.Sub(signalled); d > 3*time.Second {
			t.Errorf("bsrngd took %v to exit after SIGTERM, want under 3s", d)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("bsrngd still running 30s after SIGTERM")
	}
	if t.Failed() {
		t.Logf("bsrngd log:\n%s", childLog.String())
	}
}
