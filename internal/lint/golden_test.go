package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The fixture module is loaded once per test binary: the handler and
// retry fixtures pull net/http through the source importer, which is
// too slow to repeat per test. Analyzers never mutate the module.
var (
	fixtureOnce sync.Once
	fixtureMod  *Module
	fixtureErr  error
)

// loadFixture loads the fixture module under testdata with the real
// repo registered as a second root, so fixture packages can import the
// production faultinject and metrics registries.
func loadFixture(t *testing.T) (*Module, *Config) {
	t.Helper()
	fixtureOnce.Do(func() {
		repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureMod, fixtureErr = Load("fixture", map[string]string{
			"fixture": filepath.Join("testdata", "src", "fixture"),
			"repro":   repoRoot,
		})
	})
	if fixtureErr != nil {
		t.Fatalf("loading fixture module: %v", fixtureErr)
	}
	m := fixtureMod
	cfg := DefaultConfig("repro")
	cfg.DatapathPackages = []string{"fixture/determ"}
	cfg.GoroutinePackages = []string{"fixture/gohyg"}
	cfg.ZeroCopyPackages = []string{"fixture/chunkalias"}
	cfg.ImmutableTypes = []string{"fixture/ringimm.Ring"}
	cfg.ContextPackages = []string{"fixture/ctxprop"}
	cfg.HandlerPackages = []string{"fixture/handlerhyg"}
	cfg.RetryPackages = []string{"fixture/retry"}
	return m, cfg
}

// want is one assertion parsed from a `// want "re"` comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantLineRE = regexp.MustCompile("//\\s*want\\s+((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)$")

// collectWants scans every fixture source file for want comments. A
// want comment asserts about the line it ends.
func collectWants(t *testing.T, m *Module) []*want {
	t.Helper()
	var wants []*want
	seen := map[string]bool{}
	for _, pkg := range m.Packages {
		files := append(append([]*ast.File{}, pkg.Files...), pkg.TestFiles...)
		for _, f := range files {
			name := m.Fset.Position(f.Pos()).Filename
			if seen[name] {
				continue
			}
			seen[name] = true
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				mm := wantLineRE.FindStringSubmatchIndex(line)
				if mm == nil {
					continue
				}
				for _, pat := range splitWantPatterns(line[mm[2]:mm[3]]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, pat, err)
					}
					wants = append(wants, &want{file: name, line: i + 1, re: re})
				}
			}
		}
	}
	return wants
}

// splitWantPatterns splits `"re1" "re2"` and backquoted patterns.
func splitWantPatterns(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
				end++
			}
			if end >= len(s) {
				return out
			}
			if u, err := strconv.Unquote(s[:end+1]); err == nil {
				out = append(out, u)
			}
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return out
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		default:
			return out
		}
	}
	return out
}

// TestGoldenFixtures runs the full analyzer suite over the fixture
// module and matches every diagnostic against the `// want` assertions
// embedded in the fixture sources — both directions: no unexpected
// findings, no unmet expectations.
func TestGoldenFixtures(t *testing.T) {
	m, cfg := loadFixture(t)
	diags := Run(m, cfg, Analyzers)
	wants := collectWants(t, m)

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.String()) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic %s:%d: %s", relToWD(d.Pos.Filename), d.Pos.Line, d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q matched no diagnostic", relToWD(w.file), w.line, w.re)
		}
	}
}

func relToWD(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	if r, err := filepath.Rel(wd, name); err == nil {
		return r
	}
	return name
}

// TestEachAnalyzerFires pins that every analyzer in the suite produces
// at least one finding on the fixture module — a new analyzer merged
// without fixture coverage fails here, not silently.
func TestEachAnalyzerFires(t *testing.T) {
	m, cfg := loadFixture(t)
	for _, a := range Analyzers {
		diags := Run(m, cfg, []*Analyzer{a})
		fired := false
		for _, d := range diags {
			if d.Rule == a.Name {
				fired = true
				break
			}
		}
		if !fired {
			t.Errorf("analyzer %s produced no findings on the fixture module", a.Name)
		}
	}
}

func TestLoadBrokenModule(t *testing.T) {
	_, err := Load("broken", map[string]string{"broken": filepath.Join("testdata", "src", "broken")})
	if err == nil {
		t.Fatal("loading a package with type errors succeeded")
	}
	if !strings.Contains(err.Error(), "type-checking") || !strings.Contains(err.Error(), "undefinedIdentifier") {
		t.Errorf("error %q does not name the type-check failure", err)
	}
}

func TestFindModule(t *testing.T) {
	root, path, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if path != "repro" {
		t.Errorf("module path = %q, want repro", path)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("returned root %s has no go.mod: %v", root, err)
	}
	if _, _, err := FindModule(t.TempDir()); err == nil {
		t.Error("FindModule outside any module succeeded")
	}
}

// TestRepoIsClean runs the production configuration over this
// repository — the same gate as `make lint`. Loading the whole module
// through the source importer takes a few seconds, so -short skips it
// (the race and nofaultinject CI jobs run -short; the coverage job runs
// the full suite).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide lint load is slow; skipped in -short")
	}
	root, path, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Load(path, map[string]string{path: root})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Packages) < 10 {
		t.Errorf("loaded only %d packages — the module walk looks broken", len(m.Packages))
	}
	for _, d := range Run(m, DefaultConfig(path), Analyzers) {
		t.Errorf("%s:%d: %s", d.Pos.Filename, d.Pos.Line, d)
	}
}
