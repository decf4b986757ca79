package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunCleanTree runs the driver over this repository and demands a
// clean exit — the same gate CI's lint job applies. Loading the whole
// module through the source importer takes a few seconds, so -short
// skips it.
func TestRunCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide lint load is slow; skipped in -short")
	}
	var out, errw bytes.Buffer
	if code := run(".", false, &out, &errw); code != 0 {
		t.Fatalf("bsrnglint exit %d on the repo tree\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if out.Len() != 0 {
		t.Errorf("expected no findings, got:\n%s", out.String())
	}
}

// TestRunNoModule checks the load-error exit path.
func TestRunNoModule(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(t.TempDir(), false, &out, &errw); code != 2 {
		t.Fatalf("exit = %d, want 2 for a directory outside any module", code)
	}
	if !strings.Contains(errw.String(), "no go.mod") {
		t.Errorf("stderr = %q, want a no-go.mod load error", errw.String())
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

// TestRunJSONFindings pins the -json output shape on a module with one
// deliberate finding (error-conventions checks every package, so it
// needs no analyzer configuration to fire).
func TestRunJSONFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		"demo.go": "// Package demo formats an error with %v instead of %w.\n" +
			"package demo\n\nimport \"fmt\"\n\n" +
			"func demo(err error) error {\n\treturn fmt.Errorf(\"%v\", err)\n}\n",
	})
	var out, errw bytes.Buffer
	if code := run(dir, true, &out, &errw); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	var findings []finding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %+v, want exactly 1", findings)
	}
	f := findings[0]
	if f.File != "demo.go" || f.Line != 7 || f.Rule != "error-conventions" ||
		!strings.Contains(f.Message, "%w") {
		t.Errorf("finding = %+v, want demo.go:7 error-conventions %%w finding", f)
	}
}

// TestRunJSONClean pins that a clean tree yields an empty JSON array
// (not null) and exit 0.
func TestRunJSONClean(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":  "module demo\n\ngo 1.22\n",
		"demo.go": "// Package demo is clean.\npackage demo\n\nfunc demo() {}\n",
	})
	var out, errw bytes.Buffer
	if code := run(dir, true, &out, &errw); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("clean-tree JSON = %q, want []", got)
	}
}
