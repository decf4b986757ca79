// Command escapecheck is the compiler-assisted allocation gate
// (DESIGN.md §14): it runs `go build -gcflags=-m` over the hot-path
// packages, maps every "escapes to heap"/"moved to heap" diagnostic to
// its enclosing function, and fails when one lands in a function on
// the segment fill/transpose/WriteTo path. There are no waivers: a hot
// function that allocates is a finding, and so is a hot-function name
// that matches no function declaration in its package, so a rename
// cannot drop a function out of the gate.
//
// The AllocsPerRun tests pin a handful of sampled paths at runtime;
// this gate covers every hot function at compile time, so an
// accidental heap allocation introduced by a kernel rewrite fails CI
// before a benchmark ever runs.
//
// Run it from the module root, with no arguments. Exit codes: 0 clean,
// 1 findings, 2 tool/build failure.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// hotPackages are the packages whose kernels carry the paper's
// throughput claim, plus the health screen every served segment passes
// through and the server's serving datapath.
var hotPackages = []string{
	"internal/core",
	"internal/bitslice",
	"internal/mickey",
	"internal/grain",
	"internal/trivium",
	"internal/aes",
	"internal/xorgens",
	"internal/chaotic",
	"internal/health",
	"internal/server",
}

// hotFuncs names, per package, the functions on the segment
// fill/transpose/WriteTo path: the steady-state work of every pass,
// and the per-pass rekey. Constructors (New*) are deliberately
// absent — they run once per engine and are allowed to allocate. Every
// name must match a function declaration in its package (a renamed or
// deleted function is a finding, not a silent hole in the gate).
var hotFuncs = map[string][]string{
	"internal/core": {
		// Stream steady state: the chunk pipeline, its workers, and the
		// segment health screen shared with the server's pooled sources.
		"Read", "WriteTo", "advance", "run", "check", "Screen",
		// Generator/engine steady state: the index rule, the per-pass
		// keying and the pass runner's key, aim and run (listed above).
		"segment", "keyLanes", "read", "key", "aim",
		// Gathered-pass window source steady state.
		"ReadWindow", "pass", "gather",
		// Per-segment material derivation (in place by design).
		"deriveLane", "next", "fill", "chaoticX0",
	},
	"internal/bitslice": {
		// The steady-state kernels: Transpose64 in place (its dispatch
		// and its generated Go kernel; the vector kernel is assembly),
		// the tiled lane store every engine's fill writes through
		// (Store), PackWords, which returns a fixed-size array by
		// value, the key/IV packer PackBytes and the single-bit lane
		// accessors. Shape's checks run only at the engines' front
		// doors and are deliberately absent.
		"Transpose64", "transpose64Generic", "Store", "TransposeVec",
		"PackWords", "PackBytes", "SetLaneBit", "LaneBit",
	},
	// Every engine's per-pass contract: Rekey and Fill (and the block
	// source, block loops and load helpers behind them) run on every
	// segment pass.
	"internal/mickey": {
		"Keystream", "keystreamBlock", "KeystreamBlockVec", "clockKG", "Reseed",
		"Rekey", "load", "Fill", "blocks",
	},
	"internal/grain": {
		"Keystream", "keystreamBlock", "KeystreamBlockVec", "initBlock", "Reseed",
		"Rekey", "Fill", "blocks",
		// The one-lane segment of a sparse window batch.
		"Segment",
	},
	"internal/trivium": {
		"Keystream", "keystreamBlock", "KeystreamBlockVec", "block", "Reseed",
		"Rekey", "load", "Fill", "blocks",
		// The one-lane segment of a sparse window batch.
		"Segment", "tap",
	},
	"internal/aes": {
		// Keystream's steady state goes through nextBlockPlanes → the
		// fused Boyar–Peralta round kernels and the in-plane counter
		// increment, none of which may allocate.
		"Keystream", "NextBatch", "nextBlockPlanes", "incCounterPlanes",
		"EncryptBlocks", "subShiftP", "subShiftXorP", "mixColumnsARKP",
		"addRoundKeyFromP", "bpSbox", "Reseed",
		"Rekey", "rekey", "Fill", "blocks",
		// The one-lane segment of a sparse window batch: the key
		// schedule and the CTR block kernels. The AES-NI kernel is
		// assembly; the scalar fallback runs the reference cipher,
		// whose Encrypt panics with a message on a short block and is
		// deliberately absent.
		"Segment", "expandKey128", "ctrBlocks", "ctrBlocksGeneric",
	},
	"internal/xorgens": {
		"Keystream", "keystreamBlock", "KeystreamBlockVec", "clockPlanes", "NextWord", "step", "mix64", "Reseed",
		"Rekey", "Fill", "blocks",
		// The one-lane segment of a sparse window batch.
		"Segment", "expand",
	},
	"internal/chaotic": {
		"Post", "Unpost",
	},
	"internal/health": {
		// The line-rate screen every served segment passes through.
		// The exact scan (scan) builds the *Failure and is deliberately
		// absent: it only runs on segments the screen cannot clear.
		"Check", "check", "screen", "aptClear", "step", "runs8",
		"zeroBytes", "uniformBytes", "gather",
	},
	"internal/server": {
		// The serving datapath: the pooled source's copy (read) and
		// refill, the pooled and window pumps, and /stream's per-chunk
		// writer (chunkWriter.Write).
		"read", "refill", "streamPooled", "streamWindow", "Write",
	},
}

func main() {
	flag.Parse()
	os.Exit(run(options{dir: ".", pkgs: hotPackages}, os.Stdout, os.Stderr))
}

// options aims the gate; main gates this module's hot packages, and
// tests point it at throwaway modules and canned compiler output.
type options struct {
	dir  string              // module root
	pkgs []string            // package dirs to build and gate
	raw  string              // non-empty: parse this saved -gcflags=-m output instead of building
	hot  map[string][]string // nil: use the built-in hotFuncs table
}

// diag is one deduplicated compiler escape diagnostic, resolved to its
// enclosing function.
type diag struct {
	file string // module-relative, slash-separated
	line int
	fn   string
	msg  string
}

var diagRE = regexp.MustCompile(`^(.+\.go):(\d+):(?:\d+:)? (.*)$`)

func run(opts options, out, errw io.Writer) int {
	root, err := filepath.Abs(opts.dir)
	if err != nil {
		fmt.Fprintln(errw, "escapecheck:", err)
		return 2
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		fmt.Fprintf(errw, "escapecheck: %s is not a module root: %v\n", root, err)
		return 2
	}
	raw, code := compilerOutput(opts, root, errw)
	if code != 0 {
		return code
	}
	diags, err := resolveDiags(root, parseEscapes(raw))
	if err != nil {
		fmt.Fprintln(errw, "escapecheck:", err)
		return 2
	}

	hot := opts.hot
	if hot == nil {
		hot = hotFuncs
	}
	var gated []diag
	for _, d := range diags {
		if d.fn == "" {
			continue // package-scope initialization, not a function
		}
		names, ok := hot[path.Dir(d.file)]
		if !ok {
			continue
		}
		for _, n := range names {
			if n == d.fn {
				gated = append(gated, d)
				break
			}
		}
	}

	stale, err := staleHotFuncs(root, opts.pkgs, hot)
	if err != nil {
		fmt.Fprintln(errw, "escapecheck:", err)
		return 2
	}

	for _, d := range gated {
		fmt.Fprintf(out, "%s:%d: [escape-gate] %s: %s (hot functions may not allocate)\n", d.file, d.line, d.fn, d.msg)
	}
	for _, st := range stale {
		fmt.Fprintf(out, "%s: [escape-gate] hot function %s matches no function declaration (renamed or deleted? update hotFuncs)\n", st.pkg, st.fn)
	}
	if findings := len(gated) + len(stale); findings > 0 {
		fmt.Fprintf(errw, "escapecheck: %d finding(s) over %d hot-path escape diagnostic(s)\n", findings, len(gated))
		return 1
	}
	fmt.Fprintln(errw, "escapecheck: clean (0 hot-path escape diagnostics)")
	return 0
}

// compilerOutput returns the -gcflags=-m diagnostics, either replayed
// from opts.raw or by building the gated packages (the build cache replays
// compiler output, so warm runs are cheap).
func compilerOutput(opts options, root string, errw io.Writer) (string, int) {
	if opts.raw != "" {
		data, err := os.ReadFile(opts.raw)
		if err != nil {
			fmt.Fprintln(errw, "escapecheck:", err)
			return "", 2
		}
		return string(data), 0
	}
	args := []string{"build", "-gcflags=-m"}
	for _, p := range opts.pkgs {
		args = append(args, "./"+path.Clean(strings.TrimSpace(p)))
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	outb, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(errw, "escapecheck: go %s failed: %v\n%s", strings.Join(args, " "), err, outb)
		return "", 2
	}
	return string(outb), 0
}

// parseEscapes extracts and deduplicates heap-escape diagnostics from
// raw compiler output (generic instantiations repeat them verbatim).
// Diagnostics in files outside the module — standard-library generic
// code instantiated by a gated package, reported by absolute path — are
// dropped: only module files can be gated.
func parseEscapes(raw string) []diag {
	seen := map[diag]bool{}
	var out []diag
	for _, line := range strings.Split(raw, "\n") {
		mm := diagRE.FindStringSubmatch(strings.TrimSpace(line))
		if mm == nil {
			continue
		}
		msg := mm[3]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		if path.IsAbs(filepath.ToSlash(mm[1])) {
			continue
		}
		n, err := strconv.Atoi(mm[2])
		if err != nil {
			continue
		}
		d := diag{file: filepath.ToSlash(mm[1]), line: n, msg: msg}
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		if out[i].line != out[j].line {
			return out[i].line < out[j].line
		}
		return out[i].msg < out[j].msg
	})
	return out
}

// resolveDiags fills in each diagnostic's enclosing function by parsing
// the named files (the compiler's -m output carries no function names).
func resolveDiags(root string, diags []diag) ([]diag, error) {
	type span struct {
		name       string
		start, end int
	}
	spans := map[string][]span{}
	fset := token.NewFileSet()
	for i, d := range diags {
		ss, ok := spans[d.file]
		if !ok {
			f, err := parser.ParseFile(fset, filepath.Join(root, filepath.FromSlash(d.file)), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					ss = append(ss, span{
						name:  fd.Name.Name,
						start: fset.Position(fd.Pos()).Line,
						end:   fset.Position(fd.End()).Line,
					})
				}
			}
			spans[d.file] = ss
		}
		for _, s := range ss {
			if d.line >= s.start && d.line <= s.end {
				diags[i].fn = s.name
				break
			}
		}
	}
	return diags, nil
}

// staleHot is a hot-table name with no function of that name in its
// package.
type staleHot struct{ pkg, fn string }

// staleHotFuncs lists the hot-table names of the gated packages that
// match no function declaration in the package's non-test files.
func staleHotFuncs(root string, pkgs []string, hot map[string][]string) ([]staleHot, error) {
	var stale []staleHot
	for _, p := range pkgs {
		p = path.Clean(strings.TrimSpace(p))
		names := hot[p]
		if len(names) == 0 {
			continue
		}
		files, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(p), "*.go"))
		if err != nil {
			return nil, err
		}
		declared := map[string]bool{}
		fset := token.NewFileSet()
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, decl := range af.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					declared[fd.Name.Name] = true
				}
			}
		}
		for _, n := range names {
			if !declared[n] {
				stale = append(stale, staleHot{p, n})
			}
		}
	}
	return stale, nil
}
