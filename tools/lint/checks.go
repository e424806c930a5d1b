package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Diagnostic is one finding, positioned for editor-style output.
type Diagnostic struct {
	Pos  token.Position
	Code string
	Msg  string
}

// Analyzer mirrors the go/analysis shape (Name, Doc, Run) without the
// golang.org/x/tools dependency, which this module does not take. Each
// analyzer is purely syntactic: it sees one parsed file at a time.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(fset *token.FileSet, f *ast.File) []Diagnostic
}

// analyzers is the registry applied by main to every non-test file.
var analyzers = []*Analyzer{legacyAtomic, mixedAccess, counterCopy, respWrite, ctxpoll, globalrand, closecheck, gang, facadeImport}

// counterFields are the per-worker counters of stats.WorkerCounters. The
// counter-copy check uses them to recognise lost-update mutations of a
// range copy without type information.
var counterFields = map[string]bool{
	"Evals": true, "ModelCalls": true, "NodeUpdates": true, "EventsUsed": true,
	"Steals": true, "BarrierWaits": true, "IdlePolls": true, "Messages": true,
	"Rollbacks": true, "Cancelled": true, "RolledBack": true,
	"Busy": true, "Idle": true,
}

// legacyAtomicFuncs are the pre-Go-1.19 free functions of sync/atomic.
// The repo convention is typed atomics (atomic.Int64 etc.), which make
// it impossible to mix atomic and plain access to the same word.
var legacyAtomicFuncs = map[string]bool{
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true,
	"AddUintptr": true, "LoadInt32": true, "LoadInt64": true, "LoadUint32": true,
	"LoadUint64": true, "LoadUintptr": true, "LoadPointer": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true,
	"StoreUint64": true, "StoreUintptr": true, "StorePointer": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true, "SwapUint64": true,
	"SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true,
	"CompareAndSwapUint32": true, "CompareAndSwapUint64": true,
	"CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
}

// atomicImportName returns the local name under which f imports
// sync/atomic, or "" when the file does not import it.
func atomicImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != "sync/atomic" {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "atomic"
	}
	return ""
}

// isLegacyAtomicCall reports whether call is pkg.Fn with pkg naming the
// sync/atomic import and Fn a legacy free function.
func isLegacyAtomicCall(call *ast.CallExpr, pkg string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != pkg || !legacyAtomicFuncs[sel.Sel.Name] {
		return "", false
	}
	return sel.Sel.Name, true
}

// legacyAtomic flags calls to the free functions of sync/atomic. Typed
// atomics carry their atomicity in the type, so a counter can never be
// half-migrated; the free functions leave the same word open to plain
// `x++` from another goroutine — the exact race the per-worker counter
// surface is designed to rule out.
var legacyAtomic = &Analyzer{
	Name: "legacyatomic",
	Doc:  "flag legacy sync/atomic free functions; use typed atomics (atomic.Int64 etc.)",
	Run: func(fset *token.FileSet, f *ast.File) []Diagnostic {
		pkg := atomicImportName(f)
		if pkg == "" {
			return nil
		}
		var out []Diagnostic
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn, ok := isLegacyAtomicCall(call, pkg); ok {
				out = append(out, Diagnostic{
					Pos:  fset.Position(call.Pos()),
					Code: "legacyatomic",
					Msg: fmt.Sprintf("legacy %s.%s: use a typed atomic (atomic.Int64 et al.) so plain access to the same counter cannot compile",
						pkg, fn),
				})
			}
			return true
		})
		return out
	},
}

// mixedAccess flags an lvalue that one function accesses both through a
// legacy atomic call (atomic.AddInt64(&w.Evals, 1)) and as a plain read
// or write (w.Evals++): the plain access races with the atomic one and
// the race detector only sees it when both paths fire in one run.
var mixedAccess = &Analyzer{
	Name: "mixedatomic",
	Doc:  "flag lvalues accessed both atomically (legacy calls) and plainly in one function",
	Run: func(fset *token.FileSet, f *ast.File) []Diagnostic {
		pkg := atomicImportName(f)
		if pkg == "" {
			return nil
		}
		var out []Diagnostic
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			atomicLV := map[string]token.Pos{} // lvalue text -> first atomic use
			plainLV := map[string]token.Pos{}  // lvalue text -> first plain write
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if _, ok := isLegacyAtomicCall(n, pkg); ok && len(n.Args) > 0 {
						if u, ok := n.Args[0].(*ast.UnaryExpr); ok && u.Op == token.AND {
							atomicLV[exprText(u.X)] = n.Pos()
						}
						return false // don't double-count the &arg as plain
					}
				case *ast.IncDecStmt:
					plainLV[exprText(n.X)] = n.Pos()
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						plainLV[exprText(lhs)] = n.Pos()
					}
				}
				return true
			})
			for lv, pos := range plainLV {
				if _, both := atomicLV[lv]; both {
					out = append(out, Diagnostic{
						Pos:  fset.Position(pos),
						Code: "mixedatomic",
						Msg:  fmt.Sprintf("%s is written plainly here but accessed with %s.* elsewhere in %s: every access must be atomic", lv, pkg, fn.Name.Name),
					})
				}
			}
		}
		return out
	},
}

// counterCopy flags mutation of a WorkerCounters field through the value
// variable of a range statement: the range variable is a copy, so the
// increment is silently lost. The canonical bug is
//
//	for _, w := range run.PerWorker { w.Evals++ }
//
// The check is syntactic, so it fires only when the mutated field is one
// of the known counter names and the ranged expression looks like a
// counter collection (mentions PerWorker or Counters).
var counterCopy = &Analyzer{
	Name: "countercopy",
	Doc:  "flag lost updates to WorkerCounters fields through a range copy",
	Run: func(fset *token.FileSet, f *ast.File) []Diagnostic {
		var out []Diagnostic
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			val, ok := rng.Value.(*ast.Ident)
			if !ok || val.Name == "_" {
				return true
			}
			src := exprText(rng.X)
			if !strings.Contains(src, "PerWorker") && !strings.Contains(src, "Counters") && !strings.Contains(src, "counters") {
				return true
			}
			ast.Inspect(rng.Body, func(m ast.Node) bool {
				var lhs ast.Expr
				switch m := m.(type) {
				case *ast.IncDecStmt:
					lhs = m.X
				case *ast.AssignStmt:
					if len(m.Lhs) == 1 {
						lhs = m.Lhs[0]
					}
				default:
					return true
				}
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || !counterFields[sel.Sel.Name] {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == val.Name {
					out = append(out, Diagnostic{
						Pos:  fset.Position(sel.Pos()),
						Code: "countercopy",
						Msg: fmt.Sprintf("%s.%s mutates a range copy of %s; the update is lost — index the slice or take a pointer",
							val.Name, sel.Sel.Name, src),
					})
				}
				return true
			})
			return true
		})
		return out
	},
}

// respWriterParams returns the names of fn's parameters whose declared
// type mentions ResponseWriter ("http.ResponseWriter" or a local alias
// ending in ResponseWriter). Purely syntactic, like every check here.
func respWriterParams(fn *ast.FuncDecl) map[string]bool {
	if fn.Type.Params == nil {
		return nil
	}
	var out map[string]bool
	for _, field := range fn.Type.Params.List {
		if !strings.HasSuffix(exprText(field.Type), "ResponseWriter") {
			continue
		}
		for _, name := range field.Names {
			if out == nil {
				out = map[string]bool{}
			}
			out[name.Name] = true
		}
	}
	return out
}

// respWrite flags HTTP handlers that call w.WriteHeader after the
// response body has already been written through w. The first body write
// commits an implicit 200 and a later WriteHeader is silently dropped
// ("superfluous response.WriteHeader call" at runtime), so an error
// status computed after rendering never reaches the client. The rule the
// server package follows: set the status, then write the body.
//
// The check is per-function and ordered by source position: a write
// through the ResponseWriter parameter (w.Write(...), or w passed as an
// argument to any call, e.g. fmt.Fprintf(w, ...) or json.NewEncoder(w))
// followed later by w.WriteHeader(...). Calls to w.Header() do not count
// as writes — header mutation before WriteHeader is the normal pattern.
var respWrite = &Analyzer{
	Name: "respwrite",
	Doc:  "flag http.Handlers that write the response body before setting the status",
	Run: func(fset *token.FileSet, f *ast.File) []Diagnostic {
		var out []Diagnostic
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			writers := respWriterParams(fn)
			if len(writers) == 0 {
				continue
			}
			firstWrite := map[string]token.Pos{} // writer name -> earliest body write
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && writers[id.Name] {
						switch sel.Sel.Name {
						case "Header":
							return true // header mutation, not a body write
						case "WriteHeader":
							if w, wrote := firstWrite[id.Name]; wrote && w < call.Pos() {
								out = append(out, Diagnostic{
									Pos:  fset.Position(call.Pos()),
									Code: "respwrite",
									Msg: fmt.Sprintf("%s.WriteHeader after the body was already written at %s: the status is dropped — set it before writing",
										id.Name, fset.Position(w)),
								})
							}
							return true
						default:
							// w.Write, or any other method that emits body.
							if _, seen := firstWrite[id.Name]; !seen {
								firstWrite[id.Name] = call.Pos()
							}
							return true
						}
					}
				}
				// w handed to another writer: fmt.Fprintf(w, ...),
				// json.NewEncoder(w), io.Copy(w, r), render(w)...
				for _, arg := range call.Args {
					if id, ok := arg.(*ast.Ident); ok && writers[id.Name] {
						if _, seen := firstWrite[id.Name]; !seen {
							firstWrite[id.Name] = call.Pos()
						}
					}
				}
				return true
			})
		}
		return out
	},
}

// exprText renders a simple expression (identifiers and selectors) as
// source text, used to compare lvalues structurally.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprText(e.X) + "[" + exprText(e.Index) + "]"
	case *ast.UnaryExpr:
		return e.Op.String() + exprText(e.X)
	case *ast.StarExpr:
		return "*" + exprText(e.X)
	case *ast.BasicLit:
		return e.Value
	case *ast.CallExpr:
		return exprText(e.Fun) + "(...)"
	case *ast.BinaryExpr:
		return exprText(e.X) + " " + e.Op.String() + " " + exprText(e.Y)
	case *ast.ParenExpr:
		return "(" + exprText(e.X) + ")"
	}
	return "?"
}
