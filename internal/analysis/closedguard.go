package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Closedguard enforces the PR 5 lifetime invariant: after Engine.Close
// the index arenas may point into an unmapped file region, so every
// exported entry point that can reach them must observe the closed flag
// first and fail with ErrClosed instead of faulting. Mechanically: an
// exported method on a guarded type whose body touches an index-bearing
// field (or calls a dispatch helper) and whose signature can return an
// error must check <recv>.closed.Load() before the first such touch.
// Methods that
// cannot return an error (metadata accessors: Shards, MemoryBytes, …)
// only read slice headers and counters — heap state that survives
// Close — so they are exempt, as is Close itself.
var Closedguard = &Analyzer{
	Name: "closedguard",
	Doc:  "exported Engine methods that touch the index check the closed flag before use",
	Run:  runClosedguard,
}

// closedGuardedTypes maps a guarded receiver type to its index-bearing
// fields: state that Close invalidates (or that leads to such state).
var closedGuardedTypes = map[string]map[string]bool{
	"Engine": {"sh": true, "cl": true, "ar": true},
}

// closedGuardedCalls are receiver methods whose call counts as touching
// the index (they dereference the fields internally). The unexported
// dispatch helpers behind the serving-tier entry points are listed so
// any new exported method routing through them — including via the
// result cache's run closure — must still check closed first.
var closedGuardedCalls = map[string]bool{
	"searchCached":             true,
	"searchPreparedCtx":        true,
	"searchTopKPreparedCtx":    true,
	"searchShorterPreparedCtx": true,
}

func runClosedguard(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || !fd.Name.IsExported() || fd.Name.Name == "Close" {
				continue
			}
			recvName, fields := guardedReceiver(pass, fd)
			if fields == nil || !returnsError(pass, fd) {
				continue
			}
			checkClosedGuard(pass, fd, recvName, fields)
		}
	}
	return nil
}

// guardedReceiver resolves fd's receiver: the receiver identifier name
// and, when the receiver type is guarded, its index field set.
func guardedReceiver(pass *Pass, fd *ast.FuncDecl) (string, map[string]bool) {
	if len(fd.Recv.List) == 0 {
		return "", nil
	}
	field := fd.Recv.List[0]
	_, typeName := NamedBase(pass.Info.TypeOf(field.Type))
	fields, ok := closedGuardedTypes[typeName]
	if !ok {
		return "", nil
	}
	name := ""
	if len(field.Names) > 0 {
		name = field.Names[0].Name
	}
	return name, fields
}

// returnsError reports whether fd's results include an error.
func returnsError(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, r := range fd.Type.Results.List {
		t := pass.Info.TypeOf(r.Type)
		if t != nil && types.Identical(t, types.Universe.Lookup("error").Type()) {
			return true
		}
	}
	return false
}

// checkClosedGuard walks the body in source order: the first touch of
// an index field must come after a <recv>.closed.Load() check.
func checkClosedGuard(pass *Pass, fd *ast.FuncDecl, recvName string, fields map[string]bool) {
	var firstTouch token.Pos
	var touchedField string
	var guardPos token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			id, ok := n.X.(*ast.Ident)
			if !ok || id.Name != recvName {
				return true
			}
			if n.Sel.Name == "closed" {
				// Looking for <recv>.closed.Load(): the parent selector
				// is matched below, but recording the field selector is
				// enough — any read of the flag is the guard.
				if !guardPos.IsValid() {
					guardPos = n.Pos()
				}
				return true
			}
			if fields[n.Sel.Name] && !firstTouch.IsValid() {
				firstTouch = n.Pos()
				touchedField = n.Sel.Name
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && closedGuardedCalls[sel.Sel.Name] {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == recvName && !firstTouch.IsValid() {
					firstTouch = n.Pos()
					touchedField = sel.Sel.Name + "()"
				}
			}
		}
		return true
	})
	if !firstTouch.IsValid() {
		return
	}
	if !guardPos.IsValid() {
		pass.Reportf(fd.Name.Pos(), "exported method %s touches index state (%s) without checking %s.closed; guard with ErrClosed before reaching arenas that Close may unmap", fd.Name.Name, touchedField, recvName)
		return
	}
	if guardPos > firstTouch {
		pass.Reportf(firstTouch, "exported method %s touches index state (%s) before its %s.closed check; move the guard first", fd.Name.Name, touchedField, recvName)
	}
}
