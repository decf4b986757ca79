package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/certify"
	"repro/internal/core"
)

func TestRunShortSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "CERTIFY.json")
	md := filepath.Join(dir, "CERTIFY.md")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-short", "-algs", "trivium", "-seed", "1",
		"-out", out, "-md", md,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep certify.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("CERTIFY.json is not JSON: %v", err)
	}
	if !rep.Pass || len(rep.Cells) != 1 || rep.Cells[0].Algorithm != "trivium" {
		t.Errorf("unexpected report: %+v", rep)
	}
	if rep.Cells[0].Lanes != core.DefaultLanes {
		t.Errorf("smoke cell lanes %d, want %d", rep.Cells[0].Lanes, core.DefaultLanes)
	}
	mdRaw, err := os.ReadFile(md)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mdRaw), "# Served-path certification: PASS") {
		t.Errorf("markdown summary wrong:\n%s", mdRaw)
	}
	if !strings.Contains(stderr.String(), "certify: PASS") {
		t.Errorf("missing PASS line on stderr: %s", stderr.String())
	}
}

func TestRunJSONToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-short", "-algs", "grain", "-q", "-out", "-"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var rep certify.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not the JSON report: %v", err)
	}
	if strings.Contains(stderr.String(), "lanes=") {
		t.Error("-q did not suppress progress lines")
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-algs", "nope"},
		{"-lanes", "64"}, // deleted: every run has the one 64-lane datapath
		{"-definitely-not-a-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
		if args[0] == "-lanes" && !strings.Contains(stderr.String(), "flag provided but not defined: -lanes") {
			t.Errorf("run(%v): stderr %q does not name the undefined flag", args, stderr.String())
		}
	}
}

func TestRunFailureExitCode(t *testing.T) {
	// A server that serves zeros fails both the cross-check and the
	// battery: the command must exit 1 and still write the report.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		w.Write(make([]byte, n))
	}))
	defer ts.Close()
	dir := t.TempDir()
	out := filepath.Join(dir, "CERTIFY.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-short", "-algs", "trivium", "-url", ts.URL, "-q", "-out", out,
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep certify.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Pass || rep.Cells[0].CrossCheckOK {
		t.Errorf("all-zero server certified: %+v", rep.Cells[0])
	}
	if !strings.Contains(stderr.String(), "certify: FAIL") {
		t.Errorf("missing FAIL line: %s", stderr.String())
	}
}

func TestRunUnwritableOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-short", "-algs", "grain", "-q",
		"-out", filepath.Join(t.TempDir(), "no", "such", "dir", "x.json"),
	}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
