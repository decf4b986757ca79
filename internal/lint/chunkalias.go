package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ChunkAliasing guards the zero-copy chunk handoff (DESIGN.md §10): the
// p argument of an io.Writer Write is live only until Write returns —
// Stream.WriteTo hands writers the staging chunk itself, which the
// stream will overwrite in place. Retaining it (storing it to a field,
// a package-level variable, an element of either, a channel, or
// capturing it in a goroutine) aliases memory whose contents are about
// to change under the holder.
//
// The check is flow-insensitive and intra-procedural: a reslice,
// append or composite literal of p is p, but a slice escaping through an
// opaque call is the callee's problem (its own Write method is checked
// by the same rule).
var ChunkAliasing = &Analyzer{
	Name: "chunk-aliasing",
	Doc:  "Write(p) arguments must not outlive the handoff",
	Run:  runChunkAliasing,
}

func runChunkAliasing(m *Module, cfg *Config, report func(token.Pos, string, ...any)) {
	for _, pkg := range m.Packages {
		if !matchesAny(cfg.ZeroCopyPackages, pkg.ImportPath) {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkWriteRetention(pkg, fd, report)
			}
		}
	}
}

// checkWriteRetention enforces the io.Writer no-retention contract on
// every method of the form Write(p []byte) (int, error): the zero-copy
// WriteTo path hands such writers a live staging chunk.
func checkWriteRetention(pkg *Package, fd *ast.FuncDecl, report func(token.Pos, string, ...any)) {
	if fd.Recv == nil || fd.Name.Name != "Write" {
		return
	}
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() != 1 || sig.Results().Len() != 2 || !isByteSlice(sig.Params().At(0).Type()) {
		return
	}
	tainted := map[*types.Var]bool{sig.Params().At(0): true}
	reportRetention(pkg, fd.Body, tainted, "the Write argument p", report)
}

// reportRetention walks a function body and reports every statement
// that stores a tainted slice somewhere that outlives the handoff.
func reportRetention(pkg *Package, body *ast.BlockStmt, tainted map[*types.Var]bool, what string, report func(token.Pos, string, ...any)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if !isRetentionSink(pkg.Info, lhs) {
					continue
				}
				rhs := x.Rhs[0]
				if len(x.Rhs) == len(x.Lhs) {
					rhs = x.Rhs[i]
				}
				if aliasesTainted(pkg.Info, rhs, tainted) {
					report(x.Pos(), "%s is stored to %s and outlives the chunk handoff — copy the bytes instead", what, sinkKind(pkg.Info, lhs))
				}
			}
		case *ast.SendStmt:
			if aliasesTainted(pkg.Info, x.Value, tainted) {
				report(x.Pos(), "%s is sent on a channel and outlives the chunk handoff — copy the bytes instead", what)
			}
		case *ast.GoStmt:
			if usesTainted(pkg.Info, x.Call, tainted) {
				report(x.Pos(), "%s is captured by a goroutine that may outlive the chunk handoff — copy the bytes instead", what)
			}
			return false
		}
		return true
	})
}

// isRetentionSink reports whether an assignment target outlives the
// enclosing call: a struct field, a package-level variable, or an
// element of either (indexing cannot widen a local's lifetime, but the
// walk cannot see whose backing store the element belongs to, so any
// non-local base counts).
func isRetentionSink(info *types.Info, lhs ast.Expr) bool {
	for {
		switch x := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				return true
			}
			// Package-qualified global (pkg.Var = ...).
			v, _ := info.Uses[x.Sel].(*types.Var)
			return v != nil && isGlobalVar(v)
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return v != nil && isGlobalVar(v)
		default:
			return false
		}
	}
}

// sinkKind names the retention sink for the diagnostic message.
func sinkKind(info *types.Info, lhs ast.Expr) string {
	for {
		switch x := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				return "field " + x.Sel.Name
			}
			return "package-level variable " + x.Sel.Name
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		case *ast.Ident:
			return "package-level variable " + x.Name
		default:
			return "a longer-lived location"
		}
	}
}

// aliasesTainted reports whether the expression's value may share a
// tainted slice's backing array: the variable itself, a reslice of it,
// or a composite literal embedding it. Function results are fresh
// values (retention inside the callee is checked at the callee), with
// one exception — append's result may share its first argument's
// backing array (the appended elements are bytes, copied by value).
func aliasesTainted(info *types.Info, e ast.Expr, tainted map[*types.Var]bool) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := info.Uses[x].(*types.Var)
		return v != nil && tainted[v]
	case *ast.SliceExpr:
		return aliasesTainted(info, x.X, tainted)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(x.Args) > 0 {
				return aliasesTainted(info, x.Args[0], tainted)
			}
		}
		return false
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if aliasesTainted(info, elt, tainted) {
				return true
			}
		}
		return false
	case *ast.UnaryExpr:
		return aliasesTainted(info, x.X, tainted)
	}
	return false
}

// usesTainted reports whether the expression mentions a tainted local.
func usesTainted(info *types.Info, e ast.Expr, tainted map[*types.Var]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && tainted[v] {
				found = true
			}
		}
		return true
	})
	return found
}

// localVar resolves an identifier to the local variable it defines or
// uses; nil for globals, fields and non-variables.
func localVar(info *types.Info, id *ast.Ident) *types.Var {
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || isGlobalVar(v) {
		return nil
	}
	return v
}

// isGlobalVar reports a package-level variable.
func isGlobalVar(v *types.Var) bool {
	return v.Parent() != nil && v.Parent() == v.Pkg().Scope()
}

// isByteSlice reports whether t is []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
