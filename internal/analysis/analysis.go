// Package analysis is tsvet's analyzer framework: a deliberately small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// surface the suite needs (the container image carries no module proxy,
// so the real package is unavailable; the types here keep the analyzers
// source-compatible with it should it ever land).
//
// The suite encodes the engine's six load-bearing invariants — rules
// PRs 3–5 and 10 established by convention and differential test, now
// enforced mechanically on every build:
//
//   - unsafeview: unsafe stays inside internal/arena, and every view
//     constructed there is dominated by a bounds/alignment check.
//   - frozenwrite: core.Frozen's slice fields are written only by the
//     sanctioned freeze/load files — everywhere else they may be views
//     into a read-only mmap'd region.
//   - nogoroutine: raw go statements are forbidden outside
//     internal/exec and package main — query parallelism flows through
//     the query executor.
//   - ctxflow: functions holding a context must not re-root work on
//     context.Background/TODO, and the cluster/server/shard library
//     tiers never call them at all.
//   - closedguard: exported Engine methods that can touch
//     index state check the closed flag before doing so.
//   - obsflow: exported *Ctx entry points that start an observability
//     span end it on every return path (defer sp.End() preferred).
//
// A finding can be suppressed with an explicit escape hatch:
//
//	//tsvet:ignore <reason>
//
// on the offending line, or alone on the line above it. The reason is
// mandatory; a bare directive is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// PathBase returns the final segment of the package's import path with
// any test-variant suffix ("pkg [pkg.test]") stripped — the identity
// the analyzers key their package scoping on. Matching on the final
// segment (not the full path) keeps the rules checkable against small
// fixture trees; the names involved (arena, core, exec, cluster,
// server, shard) are project-reserved.
func (p *Pass) PathBase() string {
	path := p.Pkg.Path()
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	if i := strings.LastIndex(path, "/"); i >= 0 {
		path = path[i+1:]
	}
	return path
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// FileBase returns the basename of the file containing pos.
func (p *Pass) FileBase(pos token.Pos) string {
	name := p.Fset.Position(pos).Filename
	if i := strings.LastIndex(name, "/"); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// IsPkgCall reports whether call is pkg.name(...) for a package-level
// function (or builtin-like member) of the package named pkgName,
// resolved through the type info — aliased imports are seen through,
// shadowed identifiers are not miscounted.
func (p *Pass) IsPkgCall(call *ast.CallExpr, pkgName string, names ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Name() != pkgName {
		return false
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return true
		}
	}
	return false
}

// NamedBase unwraps pointers and aliases and returns the named type's
// (package name, type name), or ("", "") for unnamed types.
func NamedBase(t types.Type) (pkg, name string) {
	if t == nil {
		return "", ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Name(), obj.Name()
}

// RunAnalyzers applies every analyzer to one package and returns the
// raw (unsuppressed) diagnostics in file/position order.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info, diags: &diags}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path(), err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, nil
}
