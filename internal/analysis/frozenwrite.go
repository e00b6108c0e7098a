package analysis

import (
	"go/ast"
	"go/types"
)

// Frozenwrite enforces the PR 3/4 arena invariant: a core.Frozen is a
// read-only view — its slice fields may point into an mmap'd,
// PROT_READ file region, so a write through them is silent corruption
// on a heap copy and a SIGSEGV on a mapping. Only the sanctioned
// builder/loader files (frozen.go, which allocates fresh heap arrays in
// freeze, a build's last step, and frozen_persist.go, which fills
// arrays it just allocated or validated) may assign, append to, copy
// into, or increment through those fields. Test files are exempt: they operate
// on heap fixtures.
var Frozenwrite = &Analyzer{
	Name: "frozenwrite",
	Doc:  "core.Frozen slice fields are written only by the sanctioned freeze/load files",
	Run:  runFrozenwrite,
}

// frozenSliceFields are the arena-backed arrays of core.Frozen.
var frozenSliceFields = map[string]bool{
	"first":     true,
	"count":     true,
	"positions": true,
	"upper":     true,
	"lower":     true,
}

// frozenWriteFiles are the only files allowed to write through them.
var frozenWriteFiles = map[string]bool{
	"frozen.go":         true,
	"frozen_persist.go": true,
}

func runFrozenwrite(pass *Pass) error {
	for _, f := range pass.Files {
		pos := f.Pos()
		if pass.InTestFile(pos) || frozenWriteFiles[pass.FileBase(pos)] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if field, ok := frozenFieldRoot(pass, lhs); ok {
						pass.Reportf(lhs.Pos(), "write to core.Frozen.%s outside frozen.go/frozen_persist.go; frozen arrays may be views into a read-only mapped region", field)
					}
				}
			case *ast.IncDecStmt:
				if field, ok := frozenFieldRoot(pass, n.X); ok {
					pass.Reportf(n.Pos(), "write to core.Frozen.%s outside frozen.go/frozen_persist.go; frozen arrays may be views into a read-only mapped region", field)
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) > 0 {
					if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "append" || id.Name == "copy") {
						if field, ok := frozenFieldRoot(pass, n.Args[0]); ok {
							pass.Reportf(n.Args[0].Pos(), "%s through core.Frozen.%s outside frozen.go/frozen_persist.go; it may write through spare capacity of a read-only mapped region", id.Name, field)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// frozenFieldRoot unwraps index/slice/paren chains and reports whether
// the expression roots at a core.Frozen slice field (f.positions,
// f.first[i], f.upper[a:b], ...).
func frozenFieldRoot(pass *Pass, e ast.Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			if !frozenSliceFields[x.Sel.Name] {
				return "", false
			}
			t := pass.Info.TypeOf(x.X)
			if pkg, name := NamedBase(t); pkg == "core" && name == "Frozen" {
				return x.Sel.Name, true
			}
			return "", false
		default:
			return "", false
		}
	}
}
