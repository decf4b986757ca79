package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// FailpointName enforces the failpoint registry conventions of
// DESIGN.md §8: every name a faultinject call site carries follows
// <pkg>.<site>.<effect> (optionally suffixed with scope labels such as
// the algorithm name), the <pkg> component equals the package of the
// Hit site that defines the failpoint, and every failpoint armed or
// queried — from tests or from orchestration code such as a chaos
// driver — is actually hit somewhere in non-test code (otherwise the
// scenario is vacuous — it passes while exercising nothing). The
// package-match rule binds only definition (Hit) sites: arming a
// failpoint from another package is the normal chaos-orchestration
// shape, and the liveness check already pins the name to a real site.
//
// Names are resolved through one level of dataflow: direct string
// literals, typed constants, and consts/vars/struct fields whose
// initializers carry a literal or a literal prefix ("server.segment.corrupt."
// + alg). A Hit whose name is a parameter of its function (a shared
// screen that callers hand their failpoint) is resolved at the call
// sites instead, each defining the failpoint in the caller's package.
// Unresolvable names (built at runtime from non-literal parts) are
// skipped, not guessed at. The registry's own package is exempt —
// its unit tests exercise the mechanism with scheme-free names.
var FailpointName = &Analyzer{
	Name: "failpoint-name",
	Doc:  "faultinject names follow <pkg>.<site>.<effect> and are armed against live sites",
	Run:  runFailpointName,
}

// failpointFuncs maps registry function names to whether their first
// argument names a failpoint.
var failpointFuncs = map[string]bool{
	"Hit": true, "Arm": true, "ArmRange": true, "ArmSeeded": true,
	"Disarm": true, "Hits": true, "Fired": true,
}

var failpointComponentRE = regexp.MustCompile(`^[a-z][a-z0-9_-]*$`)

// fpName is one resolved failpoint name or name prefix.
type fpName struct {
	s     string
	exact bool // false when s is only the compile-time prefix
	pos   token.Pos
}

// overlaps reports whether two (possibly prefix) names can refer to the
// same failpoint.
func (a fpName) overlaps(b fpName) bool {
	if a.exact && b.exact {
		return a.s == b.s
	}
	return strings.HasPrefix(a.s, b.s) || strings.HasPrefix(b.s, a.s)
}

func runFailpointName(m *Module, cfg *Config, report func(token.Pos, string, ...any)) {
	var hits []fpName // names hit in non-test code, module-wide
	var refs []fpName // names armed or queried anywhere (tests + orchestration)
	validated := map[token.Pos]bool{}

	// validate checks the naming scheme; defines additionally binds the
	// <pkg> component to the enclosing package (Hit sites only — arming
	// another package's failpoint is legitimate chaos orchestration).
	validate := func(n fpName, enclosingPkg string, defines bool) {
		if validated[n.pos] {
			return
		}
		validated[n.pos] = true
		name := strings.TrimSuffix(n.s, ".")
		comps := strings.Split(name, ".")
		if n.exact && len(comps) < 3 {
			report(n.pos, "failpoint name %q does not follow <pkg>.<site>.<effect> (DESIGN.md §8)", n.s)
			return
		}
		for _, c := range comps {
			if !failpointComponentRE.MatchString(c) {
				report(n.pos, "failpoint name %q has malformed component %q (want lowercase [a-z0-9_-], DESIGN.md §8)", n.s, c)
				return
			}
		}
		if defines && comps[0] != enclosingPkg {
			report(n.pos, "failpoint name %q claims package %q but lives in package %q — the <pkg> component must match the enclosing package", n.s, comps[0], enclosingPkg)
		}
	}

	forwarded := map[types.Object]bool{} // variables a Hit reads its name from
	resolvers := map[*Package]func(ast.Expr) (fpName, bool){}
	for _, pkg := range m.Packages {
		if pkg.ImportPath == cfg.FaultinjectPath {
			continue
		}
		inits := collectStringInits(pkg)

		// resolve maps a call argument to its compile-time name/prefix.
		resolve := func(arg ast.Expr) (fpName, bool) {
			if tv, ok := pkg.Info.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				return fpName{s: constant.StringVal(tv.Value), exact: true, pos: arg.Pos()}, true
			}
			if s, exact, ok := literalPrefix(arg); ok {
				return fpName{s: s, exact: exact, pos: arg.Pos()}, true
			}
			if obj := exprObject(pkg.Info, arg); obj != nil {
				if init, ok := inits[obj]; ok {
					return init, true
				}
			}
			return fpName{}, false
		}
		resolvers[pkg] = resolve

		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != cfg.FaultinjectPath ||
					!failpointFuncs[fn.Name()] || len(call.Args) == 0 {
					return true
				}
				name, ok := resolve(call.Args[0])
				defines := fn.Name() == "Hit"
				if !ok {
					if v, isVar := exprObject(pkg.Info, call.Args[0]).(*types.Var); isVar && defines {
						forwarded[v] = true
					}
					return true
				}
				validate(name, pkg.Name, defines)
				if defines {
					hits = append(hits, name)
				} else {
					refs = append(refs, name)
				}
				return true
			})
		}

		// Test files: syntactic scan (no type information).
		for _, f := range pkg.TestFiles {
			local, imported := importLocalName(f, cfg.FaultinjectPath)
			if !imported {
				continue
			}
			enclosing := strings.TrimSuffix(f.Name.Name, "_test")
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := ast.Unparen(sel.X).(*ast.Ident)
				if !ok || id.Name != local || !failpointFuncs[sel.Sel.Name] || len(call.Args) == 0 {
					return true
				}
				name, ok := resolveTestArg(m, pkg, f, call.Args[0])
				if !ok {
					return true
				}
				validate(name, enclosing, false)
				refs = append(refs, name)
				return true
			})
		}
	}

	// Forwarded names: a call that passes a name to a parameter some Hit
	// reads defines that failpoint, in the calling package.
	for _, pkg := range m.Packages {
		resolve := resolvers[pkg]
		if resolve == nil || len(forwarded) == 0 {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if fn == nil {
					return true
				}
				params := fn.Type().(*types.Signature).Params()
				for i := 0; i < params.Len() && i < len(call.Args); i++ {
					if !forwarded[params.At(i)] {
						continue
					}
					if name, ok := resolve(call.Args[i]); ok {
						validate(name, pkg.Name, true)
						hits = append(hits, name)
					}
				}
				return true
			})
		}
	}

	// Dead failpoints: armed or queried somewhere, hit nowhere in
	// non-test code.
	reported := map[string]bool{}
	for _, ref := range refs {
		live := false
		for _, h := range hits {
			if ref.overlaps(h) {
				live = true
				break
			}
		}
		if !live && !reported[ref.s] {
			reported[ref.s] = true
			report(ref.pos, "failpoint %q is armed or queried but no non-test code hits it — the scenario is vacuous (dead failpoint)", ref.s)
		}
	}
}

// exprObject resolves an identifier or field selector to its object.
func exprObject(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			return sel.Obj()
		}
		return info.Uses[x.Sel]
	}
	return nil
}

// collectStringInits maps every object in the package (const, var,
// struct field) to the string literal or literal prefix its
// initializers assign — the one level of dataflow failpoint resolution
// needs for patterns like
//
//	src := &source{fpCorrupt: "server.segment.corrupt." + alg}
func collectStringInits(pkg *Package) map[types.Object]fpName {
	inits := map[types.Object]fpName{}
	record := func(obj types.Object, rhs ast.Expr) {
		if obj == nil {
			return
		}
		if s, exact, ok := literalPrefix(rhs); ok {
			if _, dup := inits[obj]; !dup {
				inits[obj] = fpName{s: s, exact: exact, pos: rhs.Pos()}
			}
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ValueSpec:
				for i, name := range x.Names {
					if i < len(x.Values) {
						record(pkg.Info.Defs[name], x.Values[i])
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					if i >= len(x.Rhs) {
						break
					}
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						obj := pkg.Info.Defs[id]
						if obj == nil {
							obj = pkg.Info.Uses[id]
						}
						record(obj, x.Rhs[i])
					} else if obj := exprObject(pkg.Info, lhs); obj != nil {
						record(obj, x.Rhs[i])
					}
				}
			case *ast.CompositeLit:
				for _, el := range x.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok {
						record(pkg.Info.Uses[key], kv.Value)
					}
				}
			}
			return true
		})
	}
	return inits
}

// resolveTestArg resolves a failpoint name in an untyped test file:
// literals and literal prefixes directly; identifiers via same-file
// assignments, then via package-scope constants of the package under
// test; pkg.Const selectors via the loaded module.
func resolveTestArg(m *Module, pkg *Package, f *ast.File, arg ast.Expr) (fpName, bool) {
	if s, exact, ok := literalPrefix(arg); ok {
		return fpName{s: s, exact: exact, pos: arg.Pos()}, true
	}
	switch x := ast.Unparen(arg).(type) {
	case *ast.Ident:
		if n, ok := fileAssignedString(f, x.Name); ok {
			return n, true
		}
		if c, ok := scopeConstString(pkg.Types, x.Name); ok {
			return fpName{s: c, exact: true, pos: x.Pos()}, true
		}
	case *ast.SelectorExpr:
		if base, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			for _, imp := range f.Imports {
				path, _ := stringLit(imp.Path)
				if localNameOf(imp, path) != base.Name {
					continue
				}
				if dep := m.Lookup(path); dep != nil {
					if c, ok := scopeConstString(dep.Types, x.Sel.Name); ok {
						return fpName{s: c, exact: true, pos: x.Pos()}, true
					}
				}
			}
		}
	}
	return fpName{}, false
}

// fileAssignedString finds `name := <literal...>` in the file.
func fileAssignedString(f *ast.File, name string) (fpName, bool) {
	var out fpName
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name != name || i >= len(as.Rhs) {
				continue
			}
			if s, exact, ok := literalPrefix(as.Rhs[i]); ok {
				out = fpName{s: s, exact: exact, pos: as.Rhs[i].Pos()}
				found = true
				return false
			}
		}
		return true
	})
	return out, found
}

// scopeConstString looks a string constant up in a package scope.
func scopeConstString(tpkg *types.Package, name string) (string, bool) {
	if tpkg == nil {
		return "", false
	}
	c, ok := tpkg.Scope().Lookup(name).(*types.Const)
	if !ok || c.Val() == nil || c.Val().Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(c.Val()), true
}

// importLocalName reports the name a file refers to an imported package
// by ("" and false when the file does not import it).
func importLocalName(f *ast.File, path string) (string, bool) {
	for _, imp := range f.Imports {
		p, ok := stringLit(imp.Path)
		if !ok || p != path {
			continue
		}
		return localNameOf(imp, p), true
	}
	return "", false
}

// localNameOf is the identifier an import is used under.
func localNameOf(imp *ast.ImportSpec, path string) string {
	if imp.Name != nil {
		return imp.Name.Name
	}
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
