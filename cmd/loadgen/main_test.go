package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/loadtest"
)

// A boot-mode smoke run exits 0, reports PASS, and writes a LOAD.json
// whose histograms and digest are populated.
func TestRunBootSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "LOAD.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-clients", "4", "-requests", "4", "-algs", "mickey",
		"-verify", "-seed", "11", "-out", out, "-q",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "PASS") {
		t.Errorf("stderr %q does not report PASS", stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res loadtest.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("LOAD.json is not valid JSON: %v", err)
	}
	if res.Mode != "boot" || res.Requests < 16 || res.NonOK != 0 {
		t.Errorf("report %+v", res)
	}
	if res.Latency["bytes"].Count == 0 || res.Latency["bytes"].P99Ms < res.Latency["bytes"].P50Ms {
		t.Errorf("bytes latency summary %+v", res.Latency["bytes"])
	}
	if len(res.WindowDigest) != 64 {
		t.Errorf("window digest %q", res.WindowDigest)
	}
}

// A -cluster run boots the nodes behind the router, drives the load
// through it, and lands the per-node distribution and router accounting
// in the report.
func TestRunClusterSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "LOAD.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-cluster", "3", "-clients", "4", "-requests", "4", "-algs", "grain",
		"-verify", "-seed", "21", "-out", out, "-q",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "cluster — 3 nodes") {
		t.Errorf("stderr %q does not summarize the cluster", stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res loadtest.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("LOAD.json is not valid JSON: %v", err)
	}
	if res.Mode != "cluster" || res.NonOK != 0 {
		t.Errorf("report mode %q, non-OK %d", res.Mode, res.NonOK)
	}
	if res.Cluster == nil || res.Cluster.Nodes != 3 {
		t.Fatalf("cluster report %+v", res.Cluster)
	}
	if len(res.PerNode) != 3 {
		t.Errorf("per-node distribution %v, want 3 nodes", res.PerNode)
	}
}

// Stdout output with -out - keeps the report on one stream.
func TestRunStdoutReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-clients", "2", "-requests", "2", "-algs", "grain",
		"-mix", "1:0:0", "-out", "-", "-q",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var res loadtest.Result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("stdout is not the JSON report: %v", err)
	}
	if _, ok := res.Latency["lease"]; ok {
		t.Error("lease latency present despite -mix 1:0:0")
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"bad flag", []string{"-definitely-not-a-flag"}},
		{"lanes flag deleted", []string{"-lanes", "64"}},
		{"bad alg", []string{"-algs", "nope"}},
		{"bad mix shape", []string{"-mix", "1:2"}},
		{"bad mix weight", []string{"-mix", "1:x:2"}},
		{"zero mix", []string{"-mix", "0:0:0"}},
		{"chaos in dial mode", []string{"-url", "http://127.0.0.1:1", "-chaos", "1"}},
		{"cluster in dial mode", []string{"-url", "http://127.0.0.1:1", "-cluster", "3"}},
		{"cluster chaos without cluster", []string{"-cluster-chaos", "2"}},
		{"cluster with segment chaos", []string{"-cluster", "3", "-chaos", "1"}},
		{"unwritable out", []string{"-clients", "1", "-requests", "1", "-mix", "1:0:0",
			"-out", filepath.Join(string(os.PathSeparator), "no-such-dir-xyz", "x.json")}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-q"}, tc.args...), &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr %q)", tc.name, code, stderr.String())
		}
		if tc.args[0] == "-lanes" && !strings.Contains(stderr.String(), "flag provided but not defined: -lanes") {
			t.Errorf("%s: stderr %q does not name the undefined flag", tc.name, stderr.String())
		}
	}
}

func TestParseMix(t *testing.T) {
	mix, err := parseMix("3: 2 :0")
	if err != nil || mix != (loadtest.Mix{Bytes: 3, Stream: 2, Lease: 0}) {
		t.Errorf("parseMix = %+v, %v", mix, err)
	}
	if _, err := parseMix("1:-2:3"); err == nil {
		t.Error("negative weight accepted")
	}
}
