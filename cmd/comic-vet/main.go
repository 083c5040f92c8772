// Command comic-vet is the multichecker for comic's determinism and
// concurrency-contract lint suite.
//
// It bundles the repo-specific analyzers from comic/internal/lint — detrand,
// maporder, queuepop, lockorder, errlost, fpdet, directive — with a
// lightweight port of the upstream shadow pass, which default go vet does
// not run, and runs them in either of two modes:
//
//	comic-vet ./...                       standalone: load packages and check them
//	go vet -vettool=$(pwd)/comic-vet ./...  vettool: driven by the go command
//
// The vettool mode speaks cmd/go's vet protocol (-flags discovery plus one
// vet.cfg invocation per package, with gob-serialized analysis facts flowing
// between invocations through the .facts files the go command caches) and
// therefore also checks test files, which the standalone mode skips. CI runs
// the vettool form. Both modes compose facts across packages, so e.g.
// detrand flags a solver-package call whose wall-clock read hides behind a
// helper chain in another package.
//
// Analyzers can be selected with per-analyzer boolean flags, mirroring the
// upstream multichecker: with no analyzer flags every analyzer runs; naming
// any (e.g. -detrand -maporder) runs only those.
//
//	comic-vet help            list analyzers
//	comic-vet help detrand    full documentation for one analyzer
//	comic-vet -json ./...     structured findings (one JSON object per line)
//
// Exit status: 0 for a clean tree, 2 when diagnostics were reported, 1 on
// operational errors (unloadable packages, bad flags).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"comic/internal/lint"
	"comic/internal/lint/analysis"
	"comic/internal/lint/driver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("comic-vet: ")

	analyzers := lint.Analyzers()
	enabled := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = flag.Bool(a.Name, false, "run only the "+a.Name+" analyzer (with other selected analyzers)")
	}
	flagsJSON := flag.Bool("flags", false, "print analyzer flags in JSON (for the go command)")
	jsonOut := flag.Bool("json", false, "emit findings as JSON, one object per line (file/line/column/analyzer/message/directive)")
	flag.Var(versionFlag{}, "V", "print version and exit (-V=full, for the go command)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: comic-vet [-analyzer]... package...\n")
		fmt.Fprintf(os.Stderr, "       comic-vet help [analyzer]\n")
		fmt.Fprintf(os.Stderr, "       go vet -vettool=/path/to/comic-vet package...\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, summary(a))
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *flagsJSON {
		printFlagsJSON()
		return
	}

	args := flag.Args()
	if len(args) > 0 && args[0] == "help" {
		help(analyzers, args[1:])
		return
	}
	if len(args) == 0 {
		flag.Usage()
		os.Exit(1)
	}

	selected := selectAnalyzers(analyzers, enabled)

	// A single argument ending in .cfg is cmd/go driving us as a vettool.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runUnitchecker(args[0], selected, *jsonOut))
	}

	pkgs, err := driver.Load(".", args)
	if err != nil {
		log.Fatal(err)
	}
	findings, err := driver.Run(pkgs, selected)
	if err != nil {
		log.Fatal(err)
	}
	printFindings(findings, *jsonOut)
	if len(findings) > 0 {
		os.Exit(2)
	}
}

// printFindings writes findings in the text form ("file:line:col: message
// [analyzer]", stderr) or, with -json, as one JSON object per line on
// stdout. The JSON form carries the suggested //comic: directive for
// analyzers that have an annotation escape hatch, so CI can render "fix or
// annotate" guidance next to each finding.
func printFindings(findings []driver.Finding, jsonOut bool) {
	if !jsonOut {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		return
	}
	type jsonFinding struct {
		File      string `json:"file"`
		Line      int    `json:"line"`
		Column    int    `json:"column"`
		Analyzer  string `json:"analyzer"`
		Message   string `json:"message"`
		Directive string `json:"directive,omitempty"`
	}
	enc := json.NewEncoder(os.Stdout)
	for _, f := range findings {
		jf := jsonFinding{
			File:      f.Pos.Filename,
			Line:      f.Pos.Line,
			Column:    f.Pos.Column,
			Analyzer:  f.Analyzer,
			Message:   f.Message,
			Directive: lint.SuggestedDirective(f.Analyzer),
		}
		if err := enc.Encode(jf); err != nil {
			log.Fatal(err)
		}
	}
}

// selectAnalyzers applies the multichecker flag convention: no analyzer
// flags means all analyzers, otherwise exactly the named ones.
func selectAnalyzers(all []*analysis.Analyzer, enabled map[string]*bool) []*analysis.Analyzer {
	any := false
	for _, on := range enabled {
		any = any || *on
	}
	if !any {
		return all
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if *enabled[a.Name] {
			out = append(out, a)
		}
	}
	return out
}

func summary(a *analysis.Analyzer) string {
	doc := a.Doc
	if i := strings.IndexByte(doc, '\n'); i >= 0 {
		doc = doc[:i]
	}
	return doc
}

func help(analyzers []*analysis.Analyzer, args []string) {
	if len(args) == 0 {
		fmt.Println("comic-vet bundles the following analyzers:")
		fmt.Println()
		for _, a := range analyzers {
			fmt.Printf("  %-12s %s\n", a.Name, summary(a))
		}
		fmt.Println("\nRun \"comic-vet help <analyzer>\" for details.")
		return
	}
	for _, a := range analyzers {
		if a.Name == args[0] {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
			return
		}
	}
	log.Fatalf("unknown analyzer %q", args[0])
}

// printFlagsJSON implements the -flags handshake: cmd/go asks the vettool
// which flags it accepts so it can split "go vet -detrand ./..." into tool
// flags and package patterns.
func printFlagsJSON() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var out []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		isBool := false
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok {
			isBool = b.IsBoolFlag()
		}
		out = append(out, jsonFlag{Name: f.Name, Bool: isBool, Usage: f.Usage})
	})
	// Hand-rolled to keep ordering stable without an encoder dependency on
	// struct tags; flag.VisitAll already visits in sorted order.
	fmt.Print("[")
	for i, f := range out {
		if i > 0 {
			fmt.Print(",")
		}
		fmt.Printf("{\"Name\":%q,\"Bool\":%v,\"Usage\":%q}", f.Name, f.Bool, f.Usage)
	}
	fmt.Println("]")
}

// versionFlag implements -V=full, printing a version line that embeds a
// content hash of the executable so build systems caching on tool identity
// invalidate when comic-vet changes.
type versionFlag struct{}

func (versionFlag) String() string { return "" }

func (versionFlag) Set(s string) error {
	if s != "full" {
		return fmt.Errorf("unsupported flag value: -V=%s", s)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	fmt.Printf("%s version devel comic-vet buildID=%x\n", os.Args[0], h.Sum(nil))
	os.Exit(0)
	return nil
}
