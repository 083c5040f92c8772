package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strconv"

	"comic/internal/lint/analysis"
)

// ImpureFact marks a function that reaches ambient nondeterminism — a
// wall-clock read (time.Now/Since/Until) or unmanaged randomness
// (math/rand, math/rand/v2) — directly or through any depth of helper
// calls, in any package. detrand exports it for every such function and
// imports it at call sites in determinism-critical packages, which is what
// makes the pass transitive across package boundaries: a helper in
// internal/stats that calls time.Now taints every solver-package call that
// reaches it.
//
// A clock read annotated with a valid //comic:timing directive does not
// taint its function: the annotation asserts the read never influences a
// result, so there is nothing to propagate.
type ImpureFact struct {
	Clock bool
	Rand  bool
	// ClockVia / RandVia record one call chain from the function to the
	// root, e.g. "stats.Timestamp → time.Now", for diagnostics.
	ClockVia string
	RandVia  string
}

// AFact marks ImpureFact as an analysis fact.
func (*ImpureFact) AFact() {}

func (f *ImpureFact) String() string {
	s := ""
	if f.Clock {
		s += "clock via " + f.ClockVia
	}
	if f.Rand {
		if s != "" {
			s += "; "
		}
		s += "rand via " + f.RandVia
	}
	return "impure(" + s + ")"
}

// DetrandAnalyzer rejects ambient nondeterminism in determinism-critical
// packages: math/rand (v1 and v2) imports, wall-clock reads outside
// annotated timing-stat sites, and calls to any function — in any package —
// that transitively reaches either.
var DetrandAnalyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: `forbid ambient randomness and wall-clock reads in determinism-critical packages

The seed-selection pipeline (internal/core, internal/rrset, internal/rng,
internal/solver, internal/montecarlo, internal/multi, internal/exact,
internal/seeds) must produce byte-identical results for a given master seed
regardless of worker count or scheduling. math/rand draws from global,
schedule-dependent state, and wall-clock reads leak real time into the
computation; both are banned there. Randomness comes from comic/internal/rng
splittable streams.

The ban is transitive: detrand runs over every module package, exports an
Impure fact for each function that reaches time.Now or math/rand through any
depth of helpers, and flags calls to such functions from critical packages —
so moving a clock read into a helper in a non-critical package does not hide
it. Timing-statistics sites (build-duration counters that never influence a
result) opt out with "//comic:timing <reason>", either at the clock read
itself (which stops the taint at its root) or at the flagged call site.`,
	Run:       runDetrand,
	FactTypes: []analysis.Fact{new(ImpureFact)},
}

// forbiddenImports are the ambient-randomness packages detrand bans outright
// in critical packages. There is deliberately no directive escape hatch: the
// blessed source of randomness is comic/internal/rng.
var forbiddenImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// funcPurity accumulates the impurity analysis of one function declaration.
type funcPurity struct {
	obj  *types.Func
	fact ImpureFact
	// calls lists same-package callees (for the intra-package fixpoint),
	// in source order. randOnlyCalls holds callees at //comic:timing-
	// annotated sites: the annotation stops clock taint, but randomness can
	// never be excused as a timing stat, so rand taint still flows.
	calls         []*types.Func
	randOnlyCalls []*types.Func
}

func runDetrand(pass *analysis.Pass) (interface{}, error) {
	critical := isCriticalPkg(pass.Pkg.Path())

	// Phase 1 — per-function direct impurity and the intra-package call
	// graph. Runs in every package (the facts must exist before dependents
	// are analyzed), test files excluded: test-only helpers never reach
	// shipped solver code.
	purity := map[*types.Func]*funcPurity{}
	var order []*funcPurity // declaration order, for deterministic fixpoint
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		dirs := fileDirectives(pass.Fset, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fp := &funcPurity{obj: fn}
			purity[fn] = fp
			order = append(order, fp)
			walkWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, isClock := clockCall(pass.TypesInfo, call); isClock {
					// An annotated read is asserted not to feed results:
					// it neither taints this function nor propagates.
					if !suppressed(pass.Fset, dirs, verbTiming, "", enclosingStmt(stack), call) && !fp.fact.Clock {
						fp.fact.Clock = true
						fp.fact.ClockVia = name
					}
					return true
				}
				callee := typeutilCallee(pass.TypesInfo, call)
				if callee == nil || callee.Pkg() == nil {
					return true
				}
				timingSite := suppressed(pass.Fset, dirs, verbTiming, "", enclosingStmt(stack), call)
				switch {
				case forbiddenImports[callee.Pkg().Path()]:
					if !fp.fact.Rand {
						fp.fact.Rand = true
						fp.fact.RandVia = callee.Pkg().Path() + "." + callee.Name()
					}
				case callee.Pkg() == pass.Pkg:
					if timingSite {
						fp.randOnlyCalls = append(fp.randOnlyCalls, callee)
					} else {
						fp.calls = append(fp.calls, callee)
					}
				default:
					// Cross-package callee: its impurity, if any, was
					// already computed and exported (dependencies are
					// analyzed first). A //comic:timing on this statement
					// stops clock taint here, but not rand taint.
					var imp ImpureFact
					if pass.ImportObjectFact(callee, &imp) {
						if timingSite {
							imp.Clock, imp.ClockVia = false, ""
						}
						mergeImpure(&fp.fact, &imp, shortFuncName(callee))
					}
				}
				return true
			})
		}
	}

	// Phase 2 — intra-package fixpoint: impurity flows caller-ward through
	// the local call graph until nothing changes. Sweeps visit functions in
	// declaration order and callees in call order, so via-chains are
	// deterministic.
	for changed := true; changed; {
		changed = false
		for _, fp := range order {
			for _, callee := range fp.calls {
				cp := purity[callee]
				if cp == nil {
					continue
				}
				if mergeImpure(&fp.fact, &cp.fact, shortFuncName(callee)) {
					changed = true
				}
			}
			for _, callee := range fp.randOnlyCalls {
				cp := purity[callee]
				if cp == nil {
					continue
				}
				randPart := ImpureFact{Rand: cp.fact.Rand, RandVia: cp.fact.RandVia}
				if mergeImpure(&fp.fact, &randPart, shortFuncName(callee)) {
					changed = true
				}
			}
		}
	}

	// Phase 3 — export facts for the impure functions.
	sort.Slice(order, func(i, j int) bool { return order[i].obj.Pos() < order[j].obj.Pos() })
	for _, fp := range order {
		if fp.fact.Clock || fp.fact.Rand {
			fact := fp.fact
			pass.ExportObjectFact(fp.obj, &fact)
		}
	}

	if !critical {
		return nil, nil
	}

	// Phase 4 — report, in critical packages only: forbidden imports,
	// direct clock reads, and calls to (transitively) impure functions.
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		dirs := fileDirectives(pass.Fset, file)
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if forbiddenImports[path] {
				pass.Reportf(imp.Pos(), "import of %s is forbidden in determinism-critical package %s: use comic/internal/rng streams", path, pass.Pkg.Path())
			}
		}
		walkWithStack(file, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, isClock := clockCall(pass.TypesInfo, call); isClock {
				if !suppressed(pass.Fset, dirs, verbTiming, "", enclosingStmt(stack), call) {
					pass.Reportf(call.Pos(), "call to %s in determinism-critical package %s: remove it or annotate the statement with //comic:timing <reason>", name, pass.Pkg.Path())
				}
				return true
			}
			callee := typeutilCallee(pass.TypesInfo, call)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			imp, ok := impureFactFor(pass, purity, callee)
			if !ok {
				return true
			}
			stmt := enclosingStmt(stack)
			if imp.Rand {
				// No directive can excuse transitive randomness, exactly as
				// no directive excuses the import.
				pass.Reportf(call.Pos(), "call to %s in determinism-critical package %s reaches %s: use comic/internal/rng streams", shortFuncName(callee), pass.Pkg.Path(), imp.RandVia)
			} else if !suppressed(pass.Fset, dirs, verbTiming, "", stmt, call) {
				pass.Reportf(call.Pos(), "call to %s in determinism-critical package %s reaches a wall-clock read (%s): make the helper deterministic or annotate the statement with //comic:timing <reason>", shortFuncName(callee), pass.Pkg.Path(), imp.ClockVia)
			}
			return true
		})
	}
	return nil, nil
}

// impureFactFor resolves the impurity of a callee: the local analysis for
// same-package functions, the imported fact otherwise.
func impureFactFor(pass *analysis.Pass, purity map[*types.Func]*funcPurity, callee *types.Func) (*ImpureFact, bool) {
	if callee.Pkg() == pass.Pkg {
		fp := purity[callee]
		if fp != nil && (fp.fact.Clock || fp.fact.Rand) {
			return &fp.fact, true
		}
		return nil, false
	}
	var imp ImpureFact
	if pass.ImportObjectFact(callee, &imp) {
		return &imp, true
	}
	return nil, false
}

// mergeImpure folds the callee's impurity into the caller's, prefixing the
// via-chains with the callee's name. Reports whether anything changed.
func mergeImpure(dst, src *ImpureFact, calleeName string) bool {
	changed := false
	if src.Clock && !dst.Clock {
		dst.Clock = true
		dst.ClockVia = calleeName + " → " + src.ClockVia
		changed = true
	}
	if src.Rand && !dst.Rand {
		dst.Rand = true
		dst.RandVia = calleeName + " → " + src.RandVia
		changed = true
	}
	return changed
}

// impureCallSite reports whether the call invokes a function carrying a
// clock-tainted Impure fact — used by the directive analyzer to validate
// that a //comic:timing annotation is attached to something it can actually
// suppress. Same-package callees resolve too: detrand runs before directive
// in the suite, so the current package's facts are already in the store.
func impureCallSite(pass *analysis.Pass, call *ast.CallExpr) bool {
	callee := typeutilCallee(pass.TypesInfo, call)
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	var imp ImpureFact
	return pass.ImportObjectFact(callee, &imp) && imp.Clock
}
