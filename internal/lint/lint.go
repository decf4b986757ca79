package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
)

// Diagnostic is one finding, rendered by the driver as
// "file:line: [rule] message".
type Diagnostic struct {
	Rule    string
	Pos     token.Position
	Message string
}

// String renders the diagnostic without its position — the part a
// golden `// want` assertion matches against.
func (d Diagnostic) String() string {
	return fmt.Sprintf("[%s] %s", d.Rule, d.Message)
}

// Config aims the analyzers at concrete packages; DefaultConfig returns
// the repo's production values, and the golden tests point the same
// analyzers at fixture packages instead.
type Config struct {
	// DatapathPackages are the import paths whose output must be
	// bit-for-bit deterministic: the determinism analyzer bans
	// wall-clock reads, math/rand, environment lookups and
	// map-iteration-order-dependent code there.
	DatapathPackages []string
	// GoroutinePackages are the import paths where every spawned
	// goroutine must select on a ctx/done/stop channel.
	GoroutinePackages []string
	// FaultinjectPath is the failpoint registry package; call sites
	// naming failpoints are validated against <pkg>.<site>.<effect>.
	// The registry's own unit tests are exempt (they exercise the
	// mechanism, not named production sites).
	FaultinjectPath string
	// MetricsPath is the instrumentation package whose Registry
	// constructors the metric-name analyzer inspects.
	MetricsPath string
	// MetricNamePattern is the shape every registered metric name must
	// match.
	MetricNamePattern *regexp.Regexp
	// ZeroCopyPackages are the import paths participating in the
	// zero-copy chunk handoff: io.Writer Write parameters must not be
	// retained past the call (stored to a field, a global, a channel,
	// or captured by a goroutine).
	ZeroCopyPackages []string
	// ImmutableTypes are fully qualified type names ("pkgpath.Type")
	// whose fields and backing slices/maps may only be written inside
	// the file that declares the type (the constructor file).
	ImmutableTypes []string
	// ContextPackages are the import paths where request paths must
	// thread the caller's context.Context: context.Background() and
	// context.TODO() are banned outside constructors and main/init.
	ContextPackages []string
	// HandlerPackages are the import paths whose HTTP handlers are held
	// to the response-writing discipline (one WriteHeader per path, no
	// body after a failure status, errors through the error-body
	// convention).
	HandlerPackages []string
	// RetryPackages are the import paths where an unbounded loop must
	// not perform network I/O: retries are bounded by the retry budget
	// or the ring-walk candidate list, and long-lived loops gate each
	// iteration on a select.
	RetryPackages []string
}

// DefaultConfig returns the production configuration for the module at
// the given module path.
func DefaultConfig(module string) *Config {
	datapath := []string{"core", "bitslice", "lfsr", "crc", "mickey", "grain", "trivium", "aes", "xorgens", "chaotic", "health"}
	cfg := &Config{
		GoroutinePackages: []string{module + "/internal/server", module + "/internal/cluster"},
		FaultinjectPath:   module + "/internal/faultinject",
		MetricsPath:       module + "/internal/metrics",
		MetricNamePattern: regexp.MustCompile(`^bsrngd_[a-z0-9_]+$`),
		ZeroCopyPackages:  []string{module + "/internal/core", module + "/internal/server", module + "/internal/cluster"},
		ImmutableTypes:    []string{module + "/internal/cluster.Ring"},
		ContextPackages:   []string{module + "/internal/server", module + "/internal/cluster"},
		HandlerPackages:   []string{module + "/internal/server", module + "/internal/cluster"},
		RetryPackages:     []string{module + "/internal/cluster"},
	}
	for _, p := range datapath {
		cfg.DatapathPackages = append(cfg.DatapathPackages, module+"/internal/"+p)
	}
	return cfg
}

// Analyzer is one named rule set run over the whole module.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(m *Module, cfg *Config, report func(pos token.Pos, format string, args ...any))
}

// Analyzers is the full suite, in the order the driver runs it.
var Analyzers = []*Analyzer{
	Determinism,
	FailpointName,
	MetricName,
	AtomicMix,
	GoroutineHygiene,
	ErrorConventions,
	ChunkAliasing,
	RingImmutability,
	ContextPropagation,
	HandlerHygiene,
	BoundedRetry,
}

// Run executes the analyzers over the module and returns their
// diagnostics, sorted by position. Nothing suppresses a finding: code
// that trips a rule is changed, or the rule is.
func Run(m *Module, cfg *Config, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		rule := a.Name
		a.Run(m, cfg, func(pos token.Pos, format string, args ...any) {
			diags = append(diags, Diagnostic{
				Rule:    rule,
				Pos:     m.Fset.Position(pos),
				Message: fmt.Sprintf(format, args...),
			})
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	// Identical findings from overlapping passes collapse.
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// --- shared analyzer helpers ---

// matchesAny reports whether the import path is in the list.
func matchesAny(list []string, importPath string) bool {
	for _, p := range list {
		if p == importPath {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call expression to the package-level function
// or method it invokes, or nil (built-ins, function values, conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// stringLit unquotes a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// literalPrefix extracts the leading compile-time string of an
// expression: a string literal is exact; literal + <expr> yields the
// literal as a prefix (exact=false). Anything else fails.
func literalPrefix(e ast.Expr) (s string, exact bool, ok bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		s, ok = stringLit(x)
		return s, true, ok
	case *ast.BinaryExpr:
		if x.Op != token.ADD {
			return "", false, false
		}
		left, lexact, lok := literalPrefix(x.X)
		if !lok {
			return "", false, false
		}
		if lexact {
			// literal + something: if the right side is also fully
			// literal the whole expression is exact.
			if right, rexact, rok := literalPrefix(x.Y); rok && rexact {
				return left + right, true, true
			}
			return left, false, true
		}
		return left, false, true
	}
	return "", false, false
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	return t != nil && types.Implements(t, errorType)
}
