package analysis

import (
	"go/ast"
)

// Nogoroutine enforces the PR 2 concurrency invariant: all query
// parallelism flows through the query executor (internal/exec),
// which bounds worker count, keeps every query's per-shard work units
// in one FIFO queue, and parks idle workers. A raw go statement anywhere else is
// unaccounted parallelism — unbounded under load, invisible to the
// executor's budgets, and a leak risk on early-return error paths.
// Exempt: internal/exec itself (it implements the workers), package
// main (process roots own their goroutines: servers, signal watchers),
// and _test.go files. Network-bound fan-out that must not occupy CPU
// workers carries an explicit //tsvet:ignore.
var Nogoroutine = &Analyzer{
	Name: "nogoroutine",
	Doc:  "raw go statements are forbidden outside internal/exec and package main",
	Run:  runNogoroutine,
}

func runNogoroutine(pass *Pass) error {
	if pass.PathBase() == "exec" {
		return nil
	}
	for _, f := range pass.Files {
		if f.Name.Name == "main" || pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "raw go statement outside internal/exec; schedule the work on the executor (exec.Group.Go / Executor.ForEach) so parallelism stays bounded and accounted")
			}
			return true
		})
	}
	return nil
}
