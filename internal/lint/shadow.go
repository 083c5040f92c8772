package lint

// This file holds a lightweight reimplementation of the upstream shadow
// pass, which default go vet does not run. The build environment cannot
// vendor golang.org/x/tools, so the multichecker bundles this stdlib-only
// port instead: as upstream, it reports an inner declaration hiding an
// outer function-local variable, filtered by the same core heuristic (the
// shadowed variable must be used after the shadowing scope ends, otherwise
// the shadow cannot cause confusion). It accepts the
// //comic:allow shadow <reason> directive.

import (
	"go/ast"
	"go/token"
	"go/types"

	"comic/internal/lint/analysis"
)

// ShadowAnalyzer reports shadowed variables in the style of
// golang.org/x/tools/go/analysis/passes/shadow.
var ShadowAnalyzer = &analysis.Analyzer{
	Name: "shadow",
	Doc: `report likely-confusing shadowed variables

An inner := that redeclares an outer function-local variable is reported
when the outer variable is still used after the inner scope closes — the
pattern where an "if err := f(); err != nil" silently stops updating the
err the function later returns. Suppress a deliberate shadow with
"//comic:allow shadow <reason>".`,
	Run: runShadow,
}

func runShadow(pass *analysis.Pass) (interface{}, error) {
	maxUse := maxReadPos(pass)
	pkgScope := pass.Pkg.Scope()
	for _, file := range pass.Files {
		dirs := fileDirectives(pass.Fset, file)
		walkWithStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					return true
				}
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						checkShadow(pass, dirs, maxUse, pkgScope, id, n)
					}
				}
			case *ast.GenDecl:
				if n.Tok != token.VAR {
					return true
				}
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, id := range vs.Names {
						checkShadow(pass, dirs, maxUse, pkgScope, id, n)
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// maxReadPos computes, per object, the last position at which it is read.
// Pure writes — the identifier as the target of an assignment, a short
// redeclaration that reuses the variable (`x, err := f()`), an ++/-- target,
// or a range-loop assignment target — do not count: only a later *read* of
// the shadowed variable can turn a shadow into a bug.
func maxReadPos(pass *analysis.Pass) map[types.Object]token.Pos {
	writes := make(map[*ast.Ident]bool)
	markWrite := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			writes[id] = true
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markWrite(lhs)
				}
			case *ast.IncDecStmt:
				markWrite(n.X)
			case *ast.RangeStmt:
				markWrite(n.Key)
				markWrite(n.Value)
			}
			return true
		})
	}
	maxUse := make(map[types.Object]token.Pos)
	for id, obj := range pass.TypesInfo.Uses {
		if !writes[id] && id.End() > maxUse[obj] {
			maxUse[obj] = id.End()
		}
	}
	return maxUse
}

func checkShadow(pass *analysis.Pass, dirs []directive, maxUse map[types.Object]token.Pos, pkgScope *types.Scope, id *ast.Ident, stmt ast.Node) {
	if id.Name == "_" {
		return
	}
	inner, ok := pass.TypesInfo.Defs[id].(*types.Var)
	if !ok || inner.IsField() {
		return
	}
	innerScope := inner.Parent()
	if innerScope == nil || innerScope == pkgScope {
		return
	}
	parent := innerScope.Parent()
	if parent == nil {
		return
	}
	_, outerObj := parent.LookupParent(id.Name, id.Pos())
	outer, ok := outerObj.(*types.Var)
	if !ok || outer.IsField() || outer.Parent() == nil || outer.Parent() == pkgScope || outer.Parent() == types.Universe {
		return
	}
	// Heuristic (as upstream): only a shadow whose victim is read again
	// after the shadowing scope closes can bite.
	if maxUse[outer] <= innerScope.End() {
		return
	}
	if stmt != nil && suppressed(pass.Fset, dirs, verbAllow, "shadow", stmt, id) {
		return
	}
	pass.Reportf(id.Pos(), "declaration of %q shadows declaration at line %d", id.Name, pass.Fset.Position(outer.Pos()).Line)
}
