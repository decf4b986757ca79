// Command escapecheck is the compiler-assisted allocation gate
// (DESIGN.md §14): it runs `go build -gcflags=-m` over the hot-path
// packages, maps every "escapes to heap"/"moved to heap" diagnostic to
// its enclosing function, and fails when one lands in a function on
// the segment fill/transpose/WriteTo path that is not waived in the
// committed .escapeallow file.
//
// The AllocsPerRun tests pin a handful of sampled paths at runtime;
// this gate covers every hot function at compile time, so an
// accidental heap allocation introduced by a kernel rewrite fails CI
// before a benchmark ever runs.
//
// Waiver file format (.escapeallow at the module root), one entry per
// line, pipe-separated, # comments:
//
//	file|function|message-substring|reason
//
// Every field is mandatory — a waiver without a reason is a finding,
// and so is a waiver that matches nothing (mirroring bsrnglint's
// //bsrng:lint-ignore auditing). Exit codes: 0 clean, 1 findings,
// 2 tool/build failure.
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
// throughput claim — the default -pkgs value.
var hotPackages = []string{
	"internal/core",
	"internal/bitslice",
	"internal/mickey",
	"internal/grain",
	"internal/trivium",
	"internal/aes",
	"internal/xorgens",
	"internal/chaotic",
}

// hotFuncs names, per package, the functions on the segment
// fill/transpose/WriteTo path: the steady-state work between two
// reseeds. Constructors (New*) and epoch/reseed key derivation are
// deliberately absent — they run once per segment window and are
// allowed to allocate.
var hotFuncs = map[string][]string{
	"internal/core": {
		// Stream steady state: the chunk pipeline and its workers.
		"Read", "WriteTo", "NextChunk", "Recycle", "advance", "run", "checkSegment",
		// Generator/engine steady state.
		"fillPass", "advancePass", "rekey", "nextBlock", "nextBlocks", "blockBytes",
		// Gathered-pass window source steady state.
		"ReadWindow", "lead", "gather", "runPass", "key", "pass",
		// Per-segment-window material derivation (in place by design).
		"derive", "deriveLane", "keyPass", "next", "fill", "deriveChaoticX0s", "chaoticX0",
	},
	"internal/bitslice": {
		// PackBits/UnpackBits/UnpackWords/ExtractLane allocate their
		// result by contract and are deliberately absent: the
		// steady-state kernels use Transpose64 in place and PackWords,
		// which returns a fixed-size array by value.
		"Transpose32", "Transpose64", "TransposeVec", "PackWords",
		"Broadcast", "SetLaneBit", "LaneBit",
	},
	"internal/mickey": {
		"Keystream", "keystreamBlock", "KeystreamBlockVec", "ClockVec", "clockKG", "Reseed",
	},
	"internal/grain": {
		"Keystream", "keystreamBlock", "KeystreamBlockVec",
		"ClockVec", "clock", "output", "push", "packPlanes", "Reseed",
	},
	"internal/trivium": {
		"Keystream", "keystreamBlock", "KeystreamBlockVec", "ClockVec", "Reseed",
	},
	"internal/aes": {
		// PackBlocks allocates by contract and only serves the
		// reference/test path; Keystream's steady state goes through
		// nextBlockPlanes → the fused Boyar–Peralta round kernels and
		// the in-plane counter increment, none of which may allocate.
		"Keystream", "NextBatch", "nextBlockPlanes", "incCounterPlanes",
		"EncryptBlocks", "subShiftP", "subShiftXorP", "mixColumnsARKP",
		"addRoundKeyFromP", "bpSbox", "Reseed", "loadNonces",
	},
	"internal/xorgens": {
		"Keystream", "keystreamBlock", "KeystreamBlockVec", "clockPlanes", "NextWord", "step", "mix64", "Reseed",
	},
	"internal/chaotic": {
		"Post", "Unpost",
	},
}

func main() {
	opts := options{}
	var pkgs, hot string
	flag.StringVar(&opts.dir, "dir", ".", "module root to analyze")
	flag.StringVar(&pkgs, "pkgs", strings.Join(hotPackages, ","), "comma-separated package dirs to gate")
	flag.StringVar(&opts.allowPath, "allow", "", "waiver file (default <dir>/.escapeallow)")
	flag.BoolVar(&opts.emit, "emit-allow", false, "print waiver-format lines for unwaived findings and exit")
	flag.StringVar(&opts.raw, "raw", "", "parse saved compiler -m output from this file instead of running go build")
	flag.StringVar(&hot, "hot", "", "override the hot-function table: pkg=fn,fn;pkg2=fn (tests/tuning)")
	flag.Parse()
	opts.pkgs = strings.Split(pkgs, ",")
	var err error
	if opts.hot, err = parseHot(hot); err != nil {
		fmt.Fprintln(os.Stderr, "escapecheck:", err)
		os.Exit(2)
	}
	os.Exit(run(opts, os.Stdout, os.Stderr))
}

// parseHot parses the -hot override ("pkg=fn,fn;pkg2=fn"). An empty
// string keeps the built-in table (nil map).
func parseHot(hot string) (map[string][]string, error) {
	if hot == "" {
		return nil, nil
	}
	table := map[string][]string{}
	for _, ent := range strings.Split(hot, ";") {
		k, v, ok := strings.Cut(ent, "=")
		if !ok {
			return nil, fmt.Errorf("bad -hot entry %q (want pkg=fn,fn)", ent)
		}
		table[k] = strings.Split(v, ",")
	}
	return table, nil
}

type options struct {
	dir       string
	pkgs      []string
	allowPath string
	emit      bool
	raw       string
	hot       map[string][]string // nil: use the built-in hotFuncs table
}

// diag is one deduplicated compiler escape diagnostic, resolved to its
// enclosing function.
type diag struct {
	file string // module-relative, slash-separated
	line int
	fn   string
	msg  string
}

// allowEntry is one parsed .escapeallow waiver.
type allowEntry struct {
	file, fn, substr, reason string
	line                     int
	used                     bool
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

	allowPath := opts.allowPath
	if allowPath == "" {
		allowPath = filepath.Join(root, ".escapeallow")
	}
	allows, bad, err := loadAllow(allowPath)
	if err != nil {
		fmt.Fprintln(errw, "escapecheck:", err)
		return 2
	}

	findings := 0
	for _, d := range gated {
		if waiverFor(allows, d) != nil {
			continue
		}
		if opts.emit {
			fmt.Fprintf(out, "%s|%s|%s|TODO: justify this allocation\n", d.file, d.fn, d.msg)
			findings++
			continue
		}
		fmt.Fprintf(out, "%s:%d: [escape-gate] %s: %s (waive in .escapeallow with a reason if intended)\n", d.file, d.line, d.fn, d.msg)
		findings++
	}
	if !opts.emit {
		allowName := filepath.Base(allowPath)
		for _, b := range bad {
			fmt.Fprintf(out, "%s:%d: [escape-gate] malformed waiver: %s\n", allowName, b.line, b.reason)
			findings++
		}
		for _, a := range allows {
			if !a.used {
				fmt.Fprintf(out, "%s:%d: [escape-gate] unused waiver %s|%s|%s (nothing matches — delete it)\n", allowName, a.line, a.file, a.fn, a.substr)
				findings++
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(errw, "escapecheck: %d finding(s) over %d hot-path escape diagnostic(s)\n", findings, len(gated))
		return 1
	}
	fmt.Fprintf(errw, "escapecheck: clean (%d hot-path escape diagnostic(s), all waived with reasons)\n", len(gated))
	return 0
}

// compilerOutput returns the -gcflags=-m diagnostics, either replayed
// from -raw or by building the gated packages (the build cache replays
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

// loadAllow parses the waiver file; a missing file is an empty set.
func loadAllow(path string) (entries []*allowEntry, malformed []*allowEntry, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "|")
		if len(parts) != 4 {
			malformed = append(malformed, &allowEntry{line: i + 1,
				reason: fmt.Sprintf("want file|function|message-substring|reason, got %d field(s)", len(parts))})
			continue
		}
		e := &allowEntry{
			file: strings.TrimSpace(parts[0]), fn: strings.TrimSpace(parts[1]),
			substr: strings.TrimSpace(parts[2]), reason: strings.TrimSpace(parts[3]),
			line: i + 1,
		}
		if e.file == "" || e.fn == "" || e.substr == "" || e.reason == "" {
			malformed = append(malformed, &allowEntry{line: i + 1,
				reason: "empty field (every waiver carries file, function, substring and a reason)"})
			continue
		}
		entries = append(entries, e)
	}
	return entries, malformed, nil
}

// waiverFor finds the first waiver covering a diagnostic and marks it
// used.
func waiverFor(allows []*allowEntry, d diag) *allowEntry {
	for _, a := range allows {
		if a.file == d.file && a.fn == d.fn && strings.Contains(d.msg, a.substr) {
			a.used = true
			return a
		}
	}
	return nil
}
