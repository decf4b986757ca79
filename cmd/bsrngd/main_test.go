package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
)

// childArgsEnv carries, newline-separated, the bsrngd arguments of a
// child process that childCmd started from this test binary.
const childArgsEnv = "BSRNGD_TEST_MAIN"

// TestMain runs bsrngd's main instead of the tests in a child process:
// main parses flags and exits, so the tests that drive it run it apart.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(childArgsEnv); ok {
		os.Args = append([]string{"bsrngd"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// childCmd is bsrngd with args, run as a child of this test binary; the
// timeout bounds a child that would serve instead of exiting.
func childCmd(t *testing.T, args ...string) *exec.Cmd {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), childArgsEnv+"="+strings.Join(args, "\n"))
	return cmd
}

func TestRunRouterUsage(t *testing.T) {
	if err := runRouter(":0", "", 0); err == nil {
		t.Error("-router without -ring accepted")
	}
	if err := runRouter(":0", t.TempDir()+"/missing.json", 0); err == nil {
		t.Error("missing ring file accepted")
	}
}

// The -lanes flag is gone: main refuses it like any unknown flag.
func TestMainRejectsLanes(t *testing.T) {
	out, err := childCmd(t, "-lanes", "64", "-addr", "127.0.0.1:0").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
		!strings.Contains(string(out), "flag provided but not defined: -lanes") {
		t.Fatalf("bsrngd -lanes 64: %v, output:\n%s", err, out)
	}
}

// SIGTERM with an open /stream drains rather than waits: the stream
// ends at its next chunk boundary with a clean end of body, short of
// its byte budget, and bsrngd exits 0 well inside -drain-timeout.
func TestMainDrainsStreamOnSIGTERM(t *testing.T) {
	drainsStreamOnSIGTERM(t, "-algs", "grain", "-drain-timeout", "10s", "-addr", "127.0.0.1:0")
}

// The router tier drains the same way: SIGTERM on bsrngd -router with
// a relayed /stream open ends the relay after its current upstream read
// with a clean end of body, and the router exits 0 well inside
// -drain-timeout. Its one node is a grain server in this process.
func TestRouterDrainsStreamOnSIGTERM(t *testing.T) {
	srv, err := server.New(server.Config{Seed: 1, Algorithms: []core.Algorithm{core.GRAIN}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	ring, err := json.Marshal(cluster.RingConfig{Nodes: []cluster.Node{{Name: "n0", URL: "http://" + ln.Addr().String()}}})
	if err != nil {
		t.Fatal(err)
	}
	ringPath := filepath.Join(t.TempDir(), "ring.json")
	if err := os.WriteFile(ringPath, ring, 0o644); err != nil {
		t.Fatal(err)
	}
	drainsStreamOnSIGTERM(t, "-router", "-ring", ringPath, "-drain-timeout", "10s", "-addr", "127.0.0.1:0")
}

// drainsStreamOnSIGTERM starts bsrngd with args in a child process,
// reads the bound address from its log, reads a grain /stream from it
// slowly and signals the child mid-stream. The stream must end with a
// clean EOF short of its budget, and the child must exit 0 within 3 s.
func drainsStreamOnSIGTERM(t *testing.T, args ...string) {
	cmd := childCmd(t, args...)
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
		if _, rest, ok := strings.Cut(sc.Text(), " listening on "); ok {
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
