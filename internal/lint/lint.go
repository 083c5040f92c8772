// Package lint implements comic's repo-specific static analyzers — the
// passes behind cmd/comic-vet that mechanically enforce the determinism
// contract: the same query must return byte-identical seeds regardless of
// worker count, warm/cold path, node, or restart.
//
// # Analyzers
//
//   - detrand: forbids math/rand imports and wall-clock reads (time.Now,
//     time.Since, time.Until) in determinism-critical packages — including
//     reads reached transitively through helper functions in any package,
//     tracked by Impure object facts. Randomness must come from
//     comic/internal/rng streams. Timing-stat sites opt out with
//     //comic:timing.
//   - maporder: flags `for … range` over a map whose body appends to a slice
//     or writes to an encoder/writer, unless the accumulated slice is sorted
//     afterwards in the same block or the loop carries //comic:unordered.
//   - queuepop: flags the `q = q[1:]` pop-in-loop antipattern, which strands
//     backing-array capacity and regrows the queue; BFS loops walk with a
//     head index instead.
//   - lockorder: exports per-function lock-acquisition and may-block facts,
//     builds the cross-package lock-ordering graph, and flags ordering
//     cycles and mutexes held across blocking operations.
//   - errlost: flags call statements in internal/* and cmd/* that drop a
//     returned error on the floor.
//   - fpdet: flags floating-point accumulation merged across goroutines
//     outside the pinned-merge-order idiom (per-worker partials merged
//     sequentially, as in internal/montecarlo).
//   - directive: validates every //comic: directive — known verb, non-empty
//     reason, attached to a site the corresponding analyzer would actually
//     consider — so the escape hatch cannot rot.
//   - shadow: a lightweight port of the upstream pass, which default go vet
//     does not run; it accepts //comic:allow. (go vet's default suite,
//     which CI runs as its own step, covers lostcancel, nilfunc and
//     copylocks.)
//
// # Directive grammar
//
// A directive is a //-comment with no space after the slashes, in the style
// of //go: pragmas (full reference: docs/directives.md):
//
//	//comic:timing <reason>            suppress detrand for a (possibly transitive) clock read
//	//comic:unordered <reason>         suppress maporder for a map loop
//	//comic:allow <analyzer> <reason>  suppress shadow, errlost, lockorder,
//	                                   or fpdet
//
// A directive takes effect when written on the line immediately above the
// statement it excuses, on the statement's first line, or (for clock reads
// inside multi-line statements) on the line of the call itself. The reason is
// mandatory: a reasonless directive suppresses nothing and is itself reported
// by the directive analyzer.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"comic/internal/lint/analysis"
)

// Analyzers returns every analyzer in the comic-vet suite, in the order they
// are reported by `comic-vet help`.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DetrandAnalyzer,
		MaporderAnalyzer,
		QueuepopAnalyzer,
		LockorderAnalyzer,
		ErrlostAnalyzer,
		FpdetAnalyzer,
		DirectiveAnalyzer,
		ShadowAnalyzer,
	}
}

// SuggestedDirective returns the //comic: directive that would annotate a
// finding of the named analyzer away, or "" for analyzers whose findings
// must be fixed (queuepop, directive). Used by comic-vet's -json output so
// CI can render fix-or-annotate guidance.
func SuggestedDirective(analyzer string) string {
	switch analyzer {
	case "detrand":
		return "//comic:timing <reason>"
	case "maporder":
		return "//comic:unordered <reason>"
	}
	if allowableAnalyzers[analyzer] {
		return "//comic:allow " + analyzer + " <reason>"
	}
	return ""
}

// criticalRoots lists the determinism-critical package subtrees, relative to
// the module root. A package is critical when its import path contains one of
// these as a segment-aligned suffix path (so both "comic/internal/rrset" and
// the analysistest fixture path "detrand/internal/rrset" qualify).
var criticalRoots = []string{
	"internal/core",
	"internal/rrset",
	"internal/rng",
	"internal/solver",
	"internal/montecarlo",
	"internal/multi",
	"internal/exact",
	"internal/seeds",
}

// isCriticalPkg reports whether the import path belongs to a
// determinism-critical package.
func isCriticalPkg(path string) bool {
	for _, root := range criticalRoots {
		if path == root || strings.HasSuffix(path, "/"+root) ||
			strings.HasPrefix(path, root+"/") || strings.Contains(path, "/"+root+"/") {
			return true
		}
	}
	return false
}

// isTestFile reports whether pos lies in a _test.go file. The determinism
// analyzers (detrand, maporder, queuepop) govern shipped code only; tests
// routinely measure wall time and iterate maps on purpose.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// Directive verbs.
const (
	verbTiming    = "timing"
	verbUnordered = "unordered"
	verbAllow     = "allow"
)

// directivePrefix starts every comic directive comment.
const directivePrefix = "//comic:"

// A directive is one parsed //comic: comment.
type directive struct {
	pos    token.Pos
	line   int
	verb   string // "timing", "unordered", "allow", or an unknown verb
	arg    string // for allow: the analyzer name; empty otherwise
	reason string // free text after the verb (and arg, for allow)
}

// fileDirectives parses every //comic: directive in the file. Malformed
// directives (unknown verb, missing reason) are still returned — suppression
// checks reject them, and the directive analyzer reports them.
func fileDirectives(fset *token.FileSet, file *ast.File) []directive {
	var out []directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			d := directive{pos: c.Pos(), line: fset.Position(c.Pos()).Line}
			d.verb, d.reason = splitWord(text)
			if d.verb == verbAllow {
				d.arg, d.reason = splitWord(d.reason)
			}
			out = append(out, d)
		}
	}
	return out
}

// splitWord splits s into its first whitespace-delimited word and the
// trimmed remainder.
func splitWord(s string) (word, rest string) {
	s = strings.TrimSpace(s)
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		return s[:i], strings.TrimSpace(s[i+1:])
	}
	return s, ""
}

// valid reports whether the directive is well-formed: a known verb, a
// non-empty reason, and (for allow) an allowed analyzer name. Only valid
// directives suppress diagnostics.
func (d directive) valid() bool {
	switch d.verb {
	case verbTiming, verbUnordered:
		return d.reason != ""
	case verbAllow:
		return allowableAnalyzers[d.arg] && d.reason != ""
	}
	return false
}

// allowableAnalyzers are the passes //comic:allow may suppress. The
// core determinism analyzers are deliberately absent: detrand has
// //comic:timing, maporder has //comic:unordered, and queuepop findings
// must be fixed. The concurrency-contract passes (lockorder, errlost,
// fpdet) take allow directives because their findings sometimes
// mark deliberate, documented behavior — a snapshot mutex held across file
// I/O on purpose, a best-effort cleanup whose error is meaningless.
var allowableAnalyzers = map[string]bool{
	"shadow":    true,
	"errlost":   true,
	"lockorder": true,
	"fpdet":     true,
}

// suppressed reports whether a valid directive with the given verb (and, for
// allow, analyzer name) covers the site. stmt is the innermost enclosing
// statement (or other anchoring node) of the flagged position; site is the
// flagged node itself. A directive attaches on the line above the statement,
// on the statement's first line, or on the site's own line.
func suppressed(fset *token.FileSet, dirs []directive, verb, arg string, stmt, site ast.Node) bool {
	lines := attachmentLines(fset, stmt, site)
	for _, d := range dirs {
		if d.verb != verb || !d.valid() || (verb == verbAllow && d.arg != arg) {
			continue
		}
		for _, ln := range lines {
			if d.line == ln {
				return true
			}
		}
	}
	return false
}

// attachmentLines returns the source lines on which a directive may attach
// to the given statement/site pair.
func attachmentLines(fset *token.FileSet, stmt, site ast.Node) []int {
	stmtLine := fset.Position(stmt.Pos()).Line
	lines := []int{stmtLine - 1, stmtLine}
	if site != nil {
		if siteLine := fset.Position(site.Pos()).Line; siteLine != stmtLine {
			lines = append(lines, siteLine)
		}
	}
	return lines
}

// enclosingStmt returns the innermost statement in stack (a path of nodes
// from the file root to the current node, as maintained by walkWithStack).
// Falls back to the last node when the site is outside any statement.
func enclosingStmt(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(ast.Stmt); ok {
			return stack[i]
		}
	}
	if len(stack) > 0 {
		return stack[len(stack)-1]
	}
	return nil
}

// walkWithStack traverses the AST depth-first, calling fn with each node and
// the stack of its ancestors (excluding the node itself). If fn returns
// false the node's children are skipped.
func walkWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// clockFuncs are the time package functions that read the wall clock.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// clockCall reports whether the call expression invokes one of the time
// package's wall-clock reads, resolved through the type checker so aliased
// imports and shadowed identifiers are handled correctly.
func clockCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := typeutilCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if fn.Pkg().Path() == "time" && clockFuncs[fn.Name()] {
		return "time." + fn.Name(), true
	}
	return "", false
}

// typeutilCallee resolves the called function of a call expression, like
// x/tools' typeutil.Callee: it returns the *types.Func for direct calls to
// package functions and methods, and nil for builtins, conversions, and
// calls through function-typed variables.
func typeutilCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// shortFuncName renders a function as pkgname.Func or pkgname.Type.Method
// for diagnostics and fact chains.
func shortFuncName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// isMapRange reports whether the range statement iterates a map, looking
// through named types and type parameters via the core type.
func isMapRange(info *types.Info, rng *ast.RangeStmt) bool {
	t := info.TypeOf(rng.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
