// Package ctxflow implements the mpqctxflow analyzer: it enforces the
// PR 6 cancellation contract — context flows from the caller down
// through every blocking entry point, and new context roots are
// created only at deliberate, documented boundaries.
//
// Two rules:
//
//  1. Module-wide (outside package main and _test.go files), calls to
//     context.Background() and context.TODO() are flagged unless
//     annotated `//mpq:ctxroot <reason>`. A library that mints its own
//     root silently detaches work from the caller's deadline and
//     cancellation — exactly the bug class PR 6 eliminated.
//
//  2. In the serving packages (the mpq facade, internal/serve,
//     internal/fleet), every exported function, method, and interface
//     method that accepts a context.Context must take it as the first
//     parameter, matching the standard library convention the rest of
//     the repo relies on.
//
// The analyzer owns the ctxroot directive and reports undocumented
// uses of it.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"mpq/internal/analysis/directive"
)

// CtxFirstPkgs are the packages whose exported APIs must take ctx
// first; rule 2 applies here and in the root mpq facade (matched
// exactly — every other module package is a subpath of "mpq").
var CtxFirstPkgs = []string{
	"mpq/internal/serve",
	"mpq/internal/fleet",
}

var Analyzer = &analysis.Analyzer{
	Name: "mpqctxflow",
	Doc:  "flag context.Background/TODO outside annotated roots and exported serving APIs whose context.Context is not the first parameter",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	dirs := directive.Collect(pass)
	dirs.ReportUndocumented(pass, directive.CtxRoot)

	path := pass.Pkg.Path()
	if !directive.InModule(path) {
		return nil, nil
	}
	rootScope := pass.Pkg.Name() != "main"
	firstScope := path == "mpq" || directive.InScope(path, CtxFirstPkgs)

	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.FileStart).Filename, "_test.go") {
			continue
		}
		if rootScope {
			checkRoots(pass, dirs, f)
		}
		if firstScope {
			checkCtxFirst(pass, f)
		}
	}
	return nil, nil
}

// checkRoots flags context.Background/TODO calls without a
// //mpq:ctxroot annotation.
func checkRoots(pass *analysis.Pass, dirs *directive.Set, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		if name := fn.Name(); name != "Background" && name != "TODO" {
			return true
		}
		if dirs.Allowed(directive.CtxRoot, call.Pos()) {
			return true
		}
		pass.Reportf(call.Pos(), "context.%s creates a new context root, detaching this work from the caller's deadline and cancellation; thread the caller's ctx, or annotate a deliberate root //mpq:ctxroot <reason>", fn.Name())
		return true
	})
}

// checkCtxFirst flags exported funcs, methods, and interface methods
// whose context.Context parameter is not first.
func checkCtxFirst(pass *analysis.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				checkParamOrder(pass, d.Name.Name, d.Type)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				it, ok := ts.Type.(*ast.InterfaceType)
				if !ok {
					continue
				}
				for _, m := range it.Methods.List {
					ft, ok := m.Type.(*ast.FuncType)
					if !ok {
						continue
					}
					for _, name := range m.Names {
						if name.IsExported() {
							checkParamOrder(pass, ts.Name.Name+"."+name.Name, ft)
						}
					}
				}
			}
		}
	}
}

func checkParamOrder(pass *analysis.Pass, name string, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	idx := 0
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(pass, field.Type) && idx > 0 {
			pass.Reportf(field.Pos(), "exported serving API %s must take context.Context as its first parameter", name)
			return
		}
		idx += n
	}
}

func isContextType(pass *analysis.Pass, expr ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(expr)
	if t == nil {
		return false
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
