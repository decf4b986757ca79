package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseEscapes(t *testing.T) {
	raw := strings.Join([]string{
		"# internal/demo",
		"pkg/a.go:10:6: make([]byte, n) escapes to heap",
		"pkg/a.go:10:6: make([]byte, n) escapes to heap", // generic instantiations repeat diagnostics
		"pkg/a.go:3: moved to heap: x",
		"pkg/a.go:7:2: inlining call to helper", // not an escape diagnostic
		"pkg/b.go:bad: escapes to heap",         // unparsable line number
		"not a diagnostic at all",
		"pkg/b.go:1:1: s escapes to heap",
		"/usr/local/go/src/net/http/mapping.go:30:17: map[string]int{} escapes to heap", // outside the module
	}, "\n")
	got := parseEscapes(raw)
	want := []diag{
		{file: "pkg/a.go", line: 3, msg: "moved to heap: x"},
		{file: "pkg/a.go", line: 10, msg: "make([]byte, n) escapes to heap"},
		{file: "pkg/b.go", line: 1, msg: "s escapes to heap"},
	}
	if len(got) != len(want) {
		t.Fatalf("parseEscapes = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diag[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// writeModule materializes a throwaway module for driver tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// demoModule is a tiny module whose pkg/pkg.go has one hot function
// (Hot, lines 3-6) and one cold one (Cold, lines 8-10), plus a
// package-scope var (line 12) for the no-enclosing-function path and a
// function without escapes (Quiet, line 14).
func demoModule(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		"pkg/pkg.go": strings.Join([]string{
			"package pkg",
			"",
			"func Hot(n int) []byte {", // line 3
			"\tb := make([]byte, n)",
			"\treturn b",
			"}", // line 6
			"",
			"func Cold(n int) []byte {", // line 8
			"\treturn make([]byte, n)",
			"}", // line 10
			"",
			"var Sink = make([]byte, 1)", // package scope
			"",
			"func Quiet(n int) int { return n + 1 }", // line 14
			"",
		}, "\n"),
	})
}

// demoRaw is synthetic -gcflags=-m output for demoModule: one escape in
// Hot, one in Cold (not gated), one at package scope (no function).
const demoRaw = `pkg/pkg.go:4:11: make([]byte, n) escapes to heap
pkg/pkg.go:9:13: make([]byte, n) escapes to heap
pkg/pkg.go:12:16: make([]byte, 1) escapes to heap
`

// gateDemo runs the gate over demoModule's pkg with demoRaw as the
// compiler output and hot as pkg's hot functions.
func gateDemo(t *testing.T, hot ...string) (code int, out, errw string) {
	t.Helper()
	dir := demoModule(t)
	rawPath := filepath.Join(dir, "m.out")
	if err := os.WriteFile(rawPath, []byte(demoRaw), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := options{dir: dir, raw: rawPath, pkgs: []string{"pkg"}, hot: map[string][]string{"pkg": hot}}
	var o, e bytes.Buffer
	c := run(opts, &o, &e)
	return c, o.String(), e.String()
}

func TestRunGatesHotFunctionOnly(t *testing.T) {
	code, out, _ := gateDemo(t, "Hot")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "pkg/pkg.go:4: [escape-gate] Hot: make([]byte, n) escapes to heap (hot functions may not allocate)") {
		t.Errorf("missing the Hot finding:\n%s", out)
	}
	if strings.Contains(out, "Cold") || strings.Contains(out, "pkg.go:9") || strings.Contains(out, "pkg.go:12") {
		t.Errorf("cold/package-scope escapes must not be gated:\n%s", out)
	}
}

// A hot-table name with no function of that name in its package — a
// renamed or deleted hot function — is a finding, so a rename cannot
// silently drop a function out of the gate.
func TestRunFlagsStaleHotFunction(t *testing.T) {
	code, out, errw := gateDemo(t, "Quiet", "Gone")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errw)
	}
	want := "pkg: [escape-gate] hot function Gone matches no function declaration (renamed or deleted? update hotFuncs)\n"
	if out != want {
		t.Errorf("stdout = %q, want exactly the Gone finding", out)
	}
}

// Hot functions that are all declared and none of which escapes pass
// the gate: exit 0 and a clean summary.
func TestRunCleanWithoutHotEscapes(t *testing.T) {
	code, out, errw := gateDemo(t, "Quiet")
	if code != 0 || out != "" {
		t.Fatalf("exit = %d, want 0 and no findings\nstdout:\n%s\nstderr:\n%s", code, out, errw)
	}
	if errw != "escapecheck: clean (0 hot-path escape diagnostics)\n" {
		t.Errorf("stderr = %q, want the clean summary", errw)
	}
}

func TestRunNoModule(t *testing.T) {
	var o, e bytes.Buffer
	if code := run(options{dir: t.TempDir()}, &o, &e); code != 2 {
		t.Fatalf("exit = %d, want 2 outside a module", code)
	}
	if !strings.Contains(e.String(), "not a module root") {
		t.Errorf("stderr = %q, want a module-root error", e.String())
	}
}

func TestRunMissingRawFile(t *testing.T) {
	dir := writeModule(t, map[string]string{"go.mod": "module demo\n\ngo 1.22\n"})
	var o, e bytes.Buffer
	if code := run(options{dir: dir, raw: filepath.Join(dir, "absent")}, &o, &e); code != 2 {
		t.Fatalf("exit = %d, want 2 on unreadable -raw file", code)
	}
}

func TestRunUnparsableDiagnosedFile(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":        "module demo\n\ngo 1.22\n",
		"pkg/broken.go": "package pkg\nfunc oops( {\n",
	})
	rawPath := filepath.Join(dir, "m.out")
	if err := os.WriteFile(rawPath, []byte("pkg/broken.go:2:1: x escapes to heap\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var o, e bytes.Buffer
	if code := run(options{dir: dir, raw: rawPath}, &o, &e); code != 2 {
		t.Fatalf("exit = %d, want 2 when a diagnosed file cannot be parsed\nstderr: %s", code, e.String())
	}
}

// TestRunRealBuild exercises the go-build path end to end on a tiny
// module whose only function forces a heap escape. -short skips it (it
// shells out to the compiler).
func TestRunRealBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("real go build is slow; skipped in -short")
	}
	dir := writeModule(t, map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		"pkg/pkg.go": "package pkg\n\nvar sink []byte\n\nfunc Hot(n int) {\n" +
			"\tb := make([]byte, n)\n\tsink = b\n}\n",
	})
	opts := options{dir: dir, pkgs: []string{"pkg"}, hot: map[string][]string{"pkg": {"Hot"}}}
	var o, e bytes.Buffer
	if code := run(opts, &o, &e); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, o.String(), e.String())
	}
	if !strings.Contains(o.String(), "[escape-gate] Hot:") || !strings.Contains(o.String(), "escapes to heap") {
		t.Errorf("missing the forced escape finding:\n%s", o.String())
	}
}

// TestRunRealBuildFailure pins exit 2 when the gated package does not
// compile.
func TestRunRealBuildFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("real go build is slow; skipped in -short")
	}
	dir := writeModule(t, map[string]string{
		"go.mod":     "module demo\n\ngo 1.22\n",
		"pkg/pkg.go": "package pkg\nfunc oops( {\n",
	})
	var o, e bytes.Buffer
	if code := run(options{dir: dir, pkgs: []string{"pkg"}}, &o, &e); code != 2 {
		t.Fatalf("exit = %d, want 2 on a build failure\nstderr: %s", code, e.String())
	}
	if !strings.Contains(e.String(), "go build") {
		t.Errorf("stderr = %q, want the failed go build command", e.String())
	}
}

// TestRepoGateIsClean runs the real gate over this repository — the
// same check `make escape-gate` applies. -short skips it.
func TestRepoGateIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide -gcflags=-m build is slow; skipped in -short")
	}
	opts := options{dir: "../..", pkgs: hotPackages}
	var o, e bytes.Buffer
	if code := run(opts, &o, &e); code != 0 {
		t.Fatalf("escape gate exit %d on the repo tree\nstdout:\n%s\nstderr:\n%s", code, o.String(), e.String())
	}
}
