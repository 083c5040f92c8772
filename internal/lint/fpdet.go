package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"comic/internal/lint/analysis"
)

// FpdetAnalyzer guards the floating-point half of the determinism contract:
// FP addition is not associative, so the ORDER in which partial results
// merge must be schedule-independent, not merely race-free.
var FpdetAnalyzer = &analysis.Analyzer{
	Name: "fpdet",
	Doc: `flag schedule-dependent floating-point accumulation in determinism-critical packages

Floating-point addition does not associate: (a+b)+c and a+(b+c) differ in
the last bits, so an accumulation whose merge order depends on goroutine
scheduling produces run-to-run drift even when it is perfectly race-free —
a mutex around "sum += x" serializes the updates but not their order. The
determinism contract demands bitwise-identical results for a fixed master
seed regardless of worker count, so in critical packages this analyzer
flags:

  - a compound assignment (+=, -=, *=, /=) to a float variable captured
    from outside a goroutine body, or outside the worker function passed
    to rng.Streams — the shared-accumulator antipattern, with or without
    a lock around it;
  - float accumulation inside a range over a channel — the receive order
    is whatever the scheduler produced.

The blessed idiom (see internal/montecarlo) gives each worker its own
accumulator slot, indexed by worker id, and merges the slots sequentially
in slot order once the workers finish; writes through an index expression
are therefore exempt. An accumulation that is genuinely order-insensitive
(or reduced with a compensated scheme elsewhere) is annotated in place:

	//comic:allow fpdet <reason>`,
	Run: runFpdet,
}

func runFpdet(pass *analysis.Pass) (interface{}, error) {
	if !isCriticalPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		dirs := fileDirectives(pass.Fset, file)
		walkWithStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkGoroutineAccum(pass, dirs, lit)
				}
			case *ast.CallExpr:
				if lit := streamsWorker(pass.TypesInfo, n); lit != nil {
					checkGoroutineAccum(pass, dirs, lit)
				}
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						checkChannelAccum(pass, dirs, n)
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// streamsWorker returns the newWorker literal passed to rng.Streams, or nil
// for any other call. Each worker's functions run on a goroutine of their
// own, so the literal is checked like a goroutine body.
func streamsWorker(info *types.Info, call *ast.CallExpr) *ast.FuncLit {
	fn := typeutilCallee(info, call)
	if fn == nil || fn.Name() != "Streams" || fn.Pkg() == nil || len(call.Args) == 0 {
		return nil
	}
	if p := fn.Pkg().Path(); p != "internal/rng" && !strings.HasSuffix(p, "/internal/rng") {
		return nil
	}
	lit, _ := call.Args[len(call.Args)-1].(*ast.FuncLit)
	return lit
}

// checkGoroutineAccum flags float compound assignments inside the goroutine
// body whose target is captured from the enclosing function.
func checkGoroutineAccum(pass *analysis.Pass, dirs []directive, lit *ast.FuncLit) {
	walkWithStack(lit.Body, func(n ast.Node, stack []ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || !isAccumTok(as.Tok) || len(as.Lhs) != 1 {
			return true
		}
		lhs := as.Lhs[0]
		if containsIndexExpr(lhs) {
			return true // per-worker slot: the pinned-merge-order idiom
		}
		base := baseIdent(lhs)
		if base == nil {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(base)
		if obj == nil || !isFloatType(pass.TypesInfo.TypeOf(lhs)) {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // declared inside the goroutine: worker-local state
		}
		if !suppressed(pass.Fset, dirs, verbAllow, "fpdet", as, lhs) {
			pass.Reportf(as.Pos(), "floating-point accumulation into %s inside a goroutine: the merge order is schedule-dependent even under a lock; use per-worker accumulators merged in pinned order (see internal/montecarlo) or annotate with //comic:allow fpdet <reason>", types.ExprString(lhs))
		}
		return true
	})
}

// checkChannelAccum flags float compound assignments inside a range over a
// channel: the receive order is schedule-dependent whenever more than one
// sender exists, and nothing at the receive site can prove there is one.
func checkChannelAccum(pass *analysis.Pass, dirs []directive, rng *ast.RangeStmt) {
	walkWithStack(rng.Body, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || !isAccumTok(as.Tok) || len(as.Lhs) != 1 {
			return true
		}
		lhs := as.Lhs[0]
		if containsIndexExpr(lhs) {
			return true
		}
		if !isFloatType(pass.TypesInfo.TypeOf(lhs)) {
			return true
		}
		if !suppressed(pass.Fset, dirs, verbAllow, "fpdet", as, lhs) {
			pass.Reportf(as.Pos(), "floating-point accumulation into %s from a channel: the receive order is schedule-dependent; use per-worker accumulators merged in pinned order (see internal/montecarlo) or annotate with //comic:allow fpdet <reason>", types.ExprString(lhs))
		}
		return true
	})
}

// isAccumTok reports whether the assignment token accumulates into its
// target.
func isAccumTok(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	}
	return false
}

// isFloatType reports whether t's core type is a floating-point or complex
// scalar.
func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// containsIndexExpr reports whether the expression contains an index
// operation (the per-worker-slot signature).
func containsIndexExpr(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.IndexExpr); ok {
			found = true
			return false
		}
		return !found
	})
	return found
}

// baseIdent peels selectors, derefs, and parens down to the root identifier
// of an lvalue, or nil when the root is not a plain identifier.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
