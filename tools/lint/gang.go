package main

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// gangHome are the packages allowed to defer a supervisor's Recover: the
// guard that defines it and the engine layer whose worker gang
// (engine.Gang) is the one place engine workers start.
var gangHome = []string{"internal/engine/", "internal/guard/"}

// gang flags a deferred Recover call anywhere else. Such a call is a
// hand-rolled worker launch — WaitGroup, go func, defer Recover, wall
// clock — beside the shared one, and the next copy can forget the
// containment that turns a worker panic into a WorkerFault instead of a
// crashed process. Purely syntactic: any `defer x.Recover(...)` counts.
var gang = &Analyzer{
	Name: "gang",
	Doc:  "flag a deferred Recover( outside internal/engine and internal/guard: start workers with engine.Gang",
	Run: func(fset *token.FileSet, f *ast.File) []Diagnostic {
		name := filepath.ToSlash(fset.Position(f.Pos()).Filename)
		for _, home := range gangHome {
			if strings.Contains(name, home) {
				return nil
			}
		}
		var out []Diagnostic
		ast.Inspect(f, func(n ast.Node) bool {
			d, ok := n.(*ast.DeferStmt)
			if !ok {
				return true
			}
			if sel, ok := d.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Recover" {
				out = append(out, Diagnostic{
					Pos:  fset.Position(d.Pos()),
					Code: "gang",
					Msg:  "deferred Recover outside the engine layer: start workers with engine.Gang, which contains their panics",
				})
			}
			return true
		})
		return out
	},
}
