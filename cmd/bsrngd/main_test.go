package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
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
