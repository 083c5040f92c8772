package lint

import (
	"go/ast"
	"regexp"
	"sort"

	"comic/internal/lint/analysis"
)

// DirectiveAnalyzer validates every //comic: directive so the escape hatch
// cannot rot: a directive must use a known verb, carry a non-empty reason,
// and sit on a site the corresponding analyzer would actually consider. A
// stale directive — left behind after the code it excused was refactored
// away — is reported instead of silently ignored.
var DirectiveAnalyzer = &analysis.Analyzer{
	Name: "directive",
	Doc: `validate //comic: determinism directives

Grammar:

	//comic:timing <reason>            suppress detrand for a wall-clock read,
	                                   direct or reached through an impure helper
	//comic:unordered <reason>         suppress maporder for a map iteration
	//comic:allow <analyzer> <reason>  suppress shadow, errlost, lockorder,
	                                   or fpdet

Directives are written like //go: pragmas (no space after the slashes), on
the line above the statement they excuse or on the statement's line. The
analyzer reports unknown verbs, missing reasons, //comic:allow naming an
analyzer without that escape hatch, near-miss spellings ("// comic:"), and
directives not attached to a site of the kind they suppress. A timing site
can be a call to a function another package marked impure, so the analyzer
imports detrand's Impure facts to validate attachment.`,
	Run:       runDirective,
	FactTypes: []analysis.Fact{new(ImpureFact)},
}

// nearMissRe matches comments that were probably meant as directives but
// have a space after the slashes, which the directive parser (like the
// //go: pragma parser) ignores.
var nearMissRe = regexp.MustCompile(`^//\s+comic:`)

func runDirective(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		sites := collectDirectiveSites(pass, file)
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if nearMissRe.MatchString(c.Text) {
					pass.Reportf(c.Pos(), "malformed comic directive: write %q with no space after //", directivePrefix)
				}
			}
		}
		for _, d := range fileDirectives(pass.Fset, file) {
			checkDirective(pass, sites, d)
		}
	}
	return nil, nil
}

func checkDirective(pass *analysis.Pass, sites directiveSites, d directive) {
	switch d.verb {
	case verbTiming:
		if d.reason == "" {
			pass.Reportf(d.pos, "//comic:timing needs a reason: //comic:timing <reason>")
			return
		}
		if !sites.timing[d.line] {
			pass.Reportf(d.pos, "//comic:timing is not attached to a wall-clock call (time.Now, time.Since, time.Until)")
		}
	case verbUnordered:
		if d.reason == "" {
			pass.Reportf(d.pos, "//comic:unordered needs a reason: //comic:unordered <reason>")
			return
		}
		if !sites.mapRange[d.line] {
			pass.Reportf(d.pos, "//comic:unordered is not attached to a range statement over a map")
		}
	case verbAllow:
		if !allowableAnalyzers[d.arg] {
			pass.Reportf(d.pos, "//comic:allow must name one of %s (got %q)", allowableList(), d.arg)
			return
		}
		if d.reason == "" {
			pass.Reportf(d.pos, "//comic:allow %s needs a reason: //comic:allow %s <reason>", d.arg, d.arg)
			return
		}
		if !sites.stmt[d.line] {
			pass.Reportf(d.pos, "//comic:allow is not attached to a statement or declaration")
		}
	default:
		pass.Reportf(d.pos, "unknown comic directive %q (valid verbs: timing, unordered, allow)", directivePrefix+d.verb)
	}
}

// directiveSites records, per source line, whether a directive written on
// that line would attach to a site of each kind.
type directiveSites struct {
	timing   map[int]bool // lines where a //comic:timing attaches to a clock call
	mapRange map[int]bool // lines where a //comic:unordered attaches to a map range
	stmt     map[int]bool // lines where a //comic:allow attaches to a statement/decl
}

func collectDirectiveSites(pass *analysis.Pass, file *ast.File) directiveSites {
	sites := directiveSites{
		timing:   make(map[int]bool),
		mapRange: make(map[int]bool),
		stmt:     make(map[int]bool),
	}
	mark := func(m map[int]bool, lines []int) {
		for _, ln := range lines {
			m[ln] = true
		}
	}
	walkWithStack(file, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if _, ok := clockCall(pass.TypesInfo, n); ok {
				mark(sites.timing, attachmentLines(pass.Fset, enclosingStmt(stack), n))
			} else if impureCallSite(pass, n) {
				mark(sites.timing, attachmentLines(pass.Fset, enclosingStmt(stack), n))
			}
		case *ast.RangeStmt:
			if isMapRange(pass.TypesInfo, n) {
				mark(sites.mapRange, attachmentLines(pass.Fset, n, nil))
			}
		}
		if isStmtOrDecl(n) {
			mark(sites.stmt, attachmentLines(pass.Fset, n, nil))
		}
		return true
	})
	return sites
}

func isStmtOrDecl(n ast.Node) bool {
	switch n.(type) {
	case ast.Stmt, ast.Decl, *ast.ImportSpec, *ast.ValueSpec, *ast.TypeSpec, *ast.Field:
		return true
	}
	return false
}

func allowableList() string {
	names := make([]string, 0, len(allowableAnalyzers))
	for name := range allowableAnalyzers {
		names = append(names, name)
	}
	sort.Strings(names)
	out := ""
	for i, name := range names {
		if i > 0 {
			out += ", "
		}
		out += name
	}
	return out
}
