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

func TestLoadAllowMissingFile(t *testing.T) {
	entries, malformed, err := loadAllow(filepath.Join(t.TempDir(), "nope"))
	if err != nil || entries != nil || malformed != nil {
		t.Fatalf("missing file: entries=%v malformed=%v err=%v, want all empty", entries, malformed, err)
	}
}

func TestLoadAllowParsing(t *testing.T) {
	path := filepath.Join(t.TempDir(), ".escapeallow")
	content := strings.Join([]string{
		"# comment",
		"",
		"pkg/a.go|Hot|escapes to heap|cold-start staging buffer",
		"pkg/a.go|Hot|no reason here",           // 3 fields
		"pkg/a.go||escapes to heap|empty field", // empty function
	}, "\n")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, malformed, err := loadAllow(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].file != "pkg/a.go" || entries[0].fn != "Hot" ||
		entries[0].substr != "escapes to heap" || entries[0].line != 3 {
		t.Errorf("entries = %+v, want one pkg/a.go|Hot waiver at line 3", entries)
	}
	if len(malformed) != 2 {
		t.Fatalf("malformed = %+v, want 2 entries", malformed)
	}
	if malformed[0].line != 4 || !strings.Contains(malformed[0].reason, "3 field(s)") {
		t.Errorf("malformed[0] = %+v, want field-count complaint at line 4", malformed[0])
	}
	if malformed[1].line != 5 || !strings.Contains(malformed[1].reason, "empty field") {
		t.Errorf("malformed[1] = %+v, want empty-field complaint at line 5", malformed[1])
	}
}

func TestWaiverFor(t *testing.T) {
	allows := []*allowEntry{
		{file: "pkg/a.go", fn: "Other", substr: "escapes to heap"},
		{file: "pkg/a.go", fn: "Hot", substr: "make([]byte"},
	}
	d := diag{file: "pkg/a.go", fn: "Hot", msg: "make([]byte, n) escapes to heap"}
	if w := waiverFor(allows, d); w != allows[1] || !w.used {
		t.Errorf("waiverFor = %+v, want the Hot waiver marked used", w)
	}
	if allows[0].used {
		t.Error("non-matching waiver marked used")
	}
	if w := waiverFor(allows, diag{file: "pkg/b.go", fn: "Hot", msg: "x escapes to heap"}); w != nil {
		t.Errorf("waiverFor on unrelated file = %+v, want nil", w)
	}
}

func TestParseHot(t *testing.T) {
	if table, err := parseHot(""); table != nil || err != nil {
		t.Errorf("parseHot(\"\") = %v, %v, want nil table (built-in)", table, err)
	}
	table, err := parseHot("pkg=Hot,Warm;other=Run")
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 2 || len(table["pkg"]) != 2 || table["pkg"][1] != "Warm" || table["other"][0] != "Run" {
		t.Errorf("parseHot = %v, want pkg:[Hot Warm] other:[Run]", table)
	}
	if _, err := parseHot("no-equals-sign"); err == nil {
		t.Error("parseHot accepted an entry without pkg=fn form")
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
// (Hot, lines 3-6) and one cold one (Cold, lines 8-11), plus a
// package-scope var (line 13) for the no-enclosing-function path.
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
			"}", // line 11 (close enough; spans come from the parser)
			"",
			"var Sink = make([]byte, 1)", // package scope
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

// gateDemo runs the gate over demoModule with -raw input and the given
// waiver-file content ("" for none).
func gateDemo(t *testing.T, allowContent string) (code int, out, errw string) {
	t.Helper()
	dir := demoModule(t)
	rawPath := filepath.Join(dir, "m.out")
	if err := os.WriteFile(rawPath, []byte(demoRaw), 0o644); err != nil {
		t.Fatal(err)
	}
	if allowContent != "" {
		if err := os.WriteFile(filepath.Join(dir, ".escapeallow"), []byte(allowContent), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opts := options{dir: dir, raw: rawPath, hot: map[string][]string{"pkg": {"Hot"}}}
	var o, e bytes.Buffer
	c := run(opts, &o, &e)
	return c, o.String(), e.String()
}

func TestRunGatesHotFunctionOnly(t *testing.T) {
	code, out, _ := gateDemo(t, "")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "pkg/pkg.go:4: [escape-gate] Hot: make([]byte, n) escapes to heap") {
		t.Errorf("missing the Hot finding:\n%s", out)
	}
	if strings.Contains(out, "Cold") || strings.Contains(out, "pkg.go:9") || strings.Contains(out, "pkg.go:12") {
		t.Errorf("cold/package-scope escapes must not be gated:\n%s", out)
	}
}

func TestRunWaivedClean(t *testing.T) {
	code, out, errw := gateDemo(t, "# waivers\npkg/pkg.go|Hot|make([]byte, n)|result buffer, allocated by contract\n")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errw)
	}
	if !strings.Contains(errw, "clean (1 hot-path escape diagnostic(s)") {
		t.Errorf("stderr = %q, want a clean summary over 1 gated diagnostic", errw)
	}
}

func TestRunFlagsUnusedAndMalformedWaivers(t *testing.T) {
	allow := strings.Join([]string{
		"pkg/pkg.go|Hot|make([]byte, n)|result buffer, allocated by contract",
		"pkg/pkg.go|Gone|make([]byte, n)|stale waiver", // matches nothing
		"only|three|fields",
	}, "\n")
	code, out, _ := gateDemo(t, allow)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, ".escapeallow:2: [escape-gate] unused waiver pkg/pkg.go|Gone|make([]byte, n)") {
		t.Errorf("missing unused-waiver finding:\n%s", out)
	}
	if !strings.Contains(out, ".escapeallow:3: [escape-gate] malformed waiver") {
		t.Errorf("missing malformed-waiver finding:\n%s", out)
	}
}

// A hot-table name with no function of that name in its package — a
// renamed or deleted hot function — is a finding, so a rename cannot
// silently drop a function out of the gate.
func TestRunFlagsStaleHotFunction(t *testing.T) {
	dir := demoModule(t)
	rawPath := filepath.Join(dir, "m.out")
	if err := os.WriteFile(rawPath, []byte(demoRaw), 0o644); err != nil {
		t.Fatal(err)
	}
	allow := "pkg/pkg.go|Hot|make([]byte, n)|result buffer, allocated by contract\n"
	if err := os.WriteFile(filepath.Join(dir, ".escapeallow"), []byte(allow), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := options{dir: dir, raw: rawPath, pkgs: []string{"pkg"}, hot: map[string][]string{"pkg": {"Hot", "Gone"}}}
	var o, e bytes.Buffer
	if code := run(opts, &o, &e); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, o.String(), e.String())
	}
	want := "pkg: [escape-gate] hot function Gone matches no function declaration"
	if !strings.Contains(o.String(), want) || strings.Contains(o.String(), "function Hot ") {
		t.Errorf("stdout = %q, want exactly the Gone finding", o.String())
	}

	opts.hot["pkg"] = []string{"Hot"}
	o.Reset()
	if code := run(opts, &o, &e); code != 0 {
		t.Fatalf("exit = %d with every hot name declared, want 0\n%s", code, o.String())
	}
}

func TestRunEmitAllow(t *testing.T) {
	dir := demoModule(t)
	rawPath := filepath.Join(dir, "m.out")
	if err := os.WriteFile(rawPath, []byte(demoRaw), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := options{dir: dir, raw: rawPath, emit: true, hot: map[string][]string{"pkg": {"Hot"}}}
	var o, e bytes.Buffer
	if code := run(opts, &o, &e); code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, o.String())
	}
	want := "pkg/pkg.go|Hot|make([]byte, n) escapes to heap|TODO: justify this allocation\n"
	if o.String() != want {
		t.Errorf("emit output = %q, want %q", o.String(), want)
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
