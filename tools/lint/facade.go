package main

import (
	"go/ast"
	"go/token"
)

// facadeImport flags a file under internal/ that imports the module's
// root package. The facade re-exports the internal layers, so an internal
// package that reaches back up through it inverts the layering, where the
// layer below already holds the same types (a run report is an
// engine.Report, whatever the facade calls it).
var facadeImport = &Analyzer{
	Name: "facadeimport",
	Doc:  "flag an import of the root parsim package from a file under internal/",
	Run: func(fset *token.FileSet, f *ast.File) []Diagnostic {
		var out []Diagnostic
		for _, imp := range f.Imports {
			if imp.Path.Value == `"parsim"` && engineFile(fset, f) {
				out = append(out, Diagnostic{
					Pos:  fset.Position(imp.Pos()),
					Code: "facadeimport",
					Msg:  "internal package imports the parsim facade: import the internal package it re-exports",
				})
			}
		}
		return out
	},
}
