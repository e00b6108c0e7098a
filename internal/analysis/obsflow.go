package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Obsflow enforces the observability-span discipline PR 10 introduced
// on the public context-taking API surface: an exported function whose
// name ends in "Ctx" that starts a span — the second result of
// obs.StartSpan, or any call returning *obs.Span such as StartChild —
// must end it on every return path, either with an immediate
// `defer sp.End()` or with an `sp.End()` preceding each later return.
// A span left open serializes with a zero duration, silently corrupting
// every trace that flows through the endpoint; nothing at runtime
// notices, so the invariant is enforced here.
//
// The check is branch-insensitive like the rest of the suite: an
// End() call lexically between the binding and a return satisfies that
// return, whatever the control flow — the cheap discipline it demands
// (prefer defer) is exactly the one the engine's entry points follow.
// Discarding the span result with `_` is reported too: a span that
// cannot be ended should not be started. obs.SpanFrom starts nothing:
// it borrows the caller's span, which the caller ends (a deferred End
// here would restamp its duration), so binding its result is exempt.
var Obsflow = &Analyzer{
	Name: "obsflow",
	Doc:  "exported *Ctx entry points that start a span end it on every return path (defer sp.End(), or sp.End() before each later return)",
	Run:  runObsflow,
}

func runObsflow(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !fd.Name.IsExported() || !strings.HasSuffix(fd.Name.Name, "Ctx") {
				continue
			}
			checkObsflow(pass, fd)
		}
	}
	return nil
}

// spanBinding is one identifier a span was assigned to, at the
// assignment's position.
type spanBinding struct {
	name string
	pos  token.Pos
}

func checkObsflow(pass *Pass, fd *ast.FuncDecl) {
	var bindings []spanBinding
	ends := map[string][]token.Pos{}
	deferred := map[string]bool{}
	var returns []token.Pos

	// Function literals are skipped entirely: a return inside a closure
	// is not a return path of the entry point, and a span handed to a
	// closure is the closure author's to end.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, b := range spanBindingsOf(pass, n) {
				if b.name == "_" {
					pass.Reportf(b.pos, "span discarded with _ in exported %s; bind it and end it (or don't start it)", fd.Name.Name)
					continue
				}
				bindings = append(bindings, b)
			}
		case *ast.DeferStmt:
			if name, ok := endCallTarget(n.Call); ok {
				deferred[name] = true
			}
		case *ast.CallExpr:
			if name, ok := endCallTarget(n); ok {
				ends[name] = append(ends[name], n.Pos())
			}
		case *ast.ReturnStmt:
			returns = append(returns, n.Pos())
		}
		return true
	})

	for _, b := range bindings {
		if deferred[b.name] {
			continue
		}
		endedBefore := func(r token.Pos) bool {
			for _, e := range ends[b.name] {
				if e > b.pos && e < r {
					return true
				}
			}
			return false
		}
		ok := true
		covered := false
		for _, r := range returns {
			if r < b.pos {
				continue
			}
			covered = true
			if !endedBefore(r) {
				ok = false
				break
			}
		}
		if !covered {
			// No return after the binding: the function falls off its
			// end, which still needs an End on the way.
			ok = len(ends[b.name]) > 0
		}
		if !ok {
			pass.Reportf(b.pos, "span %q started in exported %s is not ended on every return path; add defer %s.End()", b.name, fd.Name.Name, b.name)
		}
	}
}

// spanBindingsOf returns the identifiers stmt binds to spans: the
// second result of obs.StartSpan, or the sole result of any call whose
// type is *obs.Span (StartChild and friends) other than obs.SpanFrom.
func spanBindingsOf(pass *Pass, stmt *ast.AssignStmt) []spanBinding {
	if len(stmt.Rhs) != 1 {
		return nil
	}
	call, ok := stmt.Rhs[0].(*ast.CallExpr)
	if !ok || pass.IsPkgCall(call, "obs", "SpanFrom") {
		return nil
	}
	if pass.IsPkgCall(call, "obs", "StartSpan") && len(stmt.Lhs) == 2 {
		if id, ok := stmt.Lhs[1].(*ast.Ident); ok {
			return []spanBinding{{id.Name, id.Pos()}}
		}
		return nil
	}
	if len(stmt.Lhs) == 1 && isObsSpanPtr(pass.Info.Types[call].Type) {
		if id, ok := stmt.Lhs[0].(*ast.Ident); ok {
			return []spanBinding{{id.Name, id.Pos()}}
		}
	}
	return nil
}

// isObsSpanPtr reports whether t is *Span of a package whose path ends
// in "obs" — matching on the basename keeps the rule checkable against
// the fixture tree, like the rest of the suite's package scoping.
func isObsSpanPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != "Span" {
		return false
	}
	path := obj.Pkg().Path()
	if i := strings.LastIndex(path, "/"); i >= 0 {
		path = path[i+1:]
	}
	return path == "obs"
}

// endCallTarget reports call as `<ident>.End()`, returning the
// identifier's name.
func endCallTarget(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" || len(call.Args) != 0 {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	return id.Name, true
}
