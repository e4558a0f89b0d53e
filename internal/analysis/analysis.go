// Package analysis is a self-contained, stdlib-only static-analysis
// framework in the shape of golang.org/x/tools/go/analysis, sized for
// this repository's needs. It exists because the reproduction's headline
// property — byte-identical serial vs -parallel sweep results and
// deterministic fault plans — rests on invariants (no wall-clock reads in
// the simulated world, no shared global randomness, no order derived from
// map iteration, no blocking work under the control-plane mutex) that
// used to live only in reviewers' heads. The analyzers under
// internal/analysis/* encode them as compiler-checked rules; cmd/swlint
// runs the whole suite and make lint / CI enforce it.
//
// The framework deliberately mirrors go/analysis: an Analyzer bundles a
// name, documentation, and a Run function over a Pass; a Pass hands the
// analyzer one type-checked package and collects Diagnostics. Legitimate
// exceptions are annotated in source with
//
//	//swlint:allow <analyzer> <reason>
//
// which suppresses that analyzer's findings on the directive's line (for
// trailing comments) or on the line below (for standalone comments). A
// reason is mandatory; malformed directives are themselves findings.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check. Run reports findings through the Pass; it
// must not retain the Pass after returning.
type Analyzer struct {
	// Name identifies the analyzer in output and in //swlint:allow
	// directives. It must be a lowercase identifier.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Collect, when non-nil, runs over every package of the program
	// before any Run, exporting per-function facts (Pass.ExportFact) for
	// the Run phase to import. Collect must not report diagnostics.
	Collect func(*Pass) error
	// Run performs the check on one package.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Prog is the whole-program view (call graph, facts). It is always
	// non-nil under RunProgram; a bare Run gives each package a private
	// single-package program.
	Prog *Program

	diagnostics []Diagnostic
}

// Diagnostic is a single finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is a diagnostic with its position resolved, ready to print.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		f.Position.Filename, f.Position.Line, f.Position.Column, f.Analyzer, f.Message)
}

// Run applies every analyzer to one free-standing package and returns the
// findings that survive //swlint:allow suppression, plus findings for
// malformed directives, sorted by position. known lists every analyzer
// name valid in directives. The package gets a private single-package
// Program, so fact-based analyzers see just this package — whole-module
// callers use RunProgram instead.
//
//swlint:allow testonly test harness: directive tests run one free-standing package through it
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, known []string) ([]Finding, error) {
	path := ""
	if pkg != nil {
		path = pkg.Path()
	}
	prog := NewProgram(fset, []*PackageUnit{{
		Path: path, Files: files, Pkg: pkg, Info: info,
	}})
	return RunProgram(prog, analyzers, known, false)
}

// RunProgram applies every analyzer to every package of the program:
// first each analyzer's Collect phase over all packages (fact export),
// then each Run, with //swlint:allow suppression applied per package.
// known lists every analyzer name valid in directives (usually the full
// suite, even when running a subset, so suppressions for other analyzers
// are not reported as unknown). reportUnused additionally reports allow
// directives that suppressed nothing — only sensible when running the
// full suite, since a subset run leaves other analyzers' suppressions
// legitimately idle.
func RunProgram(prog *Program, analyzers []*Analyzer, known []string, reportUnused bool) ([]Finding, error) {
	var findings []Finding
	dirs := make([]*Directives, len(prog.Packages))
	for i, u := range prog.Packages {
		d, bad := CollectDirectives(prog.Fset, u.Files, known)
		dirs[i] = d
		findings = append(findings, bad...)
	}
	for _, a := range analyzers {
		if a.Collect == nil {
			continue
		}
		for _, u := range prog.Packages {
			pass := &Pass{
				Analyzer: a, Fset: prog.Fset, Files: u.Files,
				Pkg: u.Pkg, TypesInfo: u.Info, Prog: prog,
			}
			if err := a.Collect(pass); err != nil {
				return nil, fmt.Errorf("%s: collect %s: %w", a.Name, u.Path, err)
			}
		}
	}
	for i, u := range prog.Packages {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a, Fset: prog.Fset, Files: u.Files,
				Pkg: u.Pkg, TypesInfo: u.Info, Prog: prog,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, u.Path, err)
			}
			for _, d := range pass.diagnostics {
				pos := prog.Fset.Position(d.Pos)
				if dirs[i].Suppressed(a.Name, pos) {
					continue
				}
				findings = append(findings, Finding{Position: pos, Analyzer: d.Analyzer, Message: d.Message})
			}
		}
		if reportUnused {
			findings = append(findings, dirs[i].Unused()...)
		}
	}
	SortFindings(findings)
	return findings, nil
}

// SortFindings orders findings by file, line, column, analyzer, message.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
