// Package analysistest runs an analyzer over a testdata package and
// checks its diagnostics against // want comments, in the style of
// golang.org/x/tools/go/analysis/analysistest (rebuilt here because the
// build environment has no module proxy).
//
// Test packages live under testdata/src/<name>/ next to the analyzer. A
// line expecting a diagnostic carries a trailing comment of the form
//
//	x = append(x, k) // want `appends to x`
//
// with one or more backquoted or double-quoted regular expressions, each
// of which must match the message of a distinct diagnostic reported on
// that line. Diagnostics without a matching want, and wants without a
// matching diagnostic, fail the test. //swlint:allow directives are
// honored before matching, so suppressed cases are written with a
// directive and no want.
package analysistest

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"switchflow/internal/analysis"
	"switchflow/internal/analysis/load"
)

// wantRx extracts the quoted regexes of a want comment.
var wantRx = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type expectation struct {
	rx       *regexp.Regexp
	line     int
	consumed bool
}

// Run loads testdata/src/<pkg> and checks the analyzer's findings against
// the package's want comments.
//
//swlint:allow testonly the analyzers' test harness
func Run(t *testing.T, a *analysis.Analyzer, pkg string) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", pkg))
	if err != nil {
		t.Fatal(err)
	}
	l := load.New("", "")
	p, err := l.LoadDir(dir, pkg)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	prog := analysis.NewProgram(l.Fset(), []*analysis.PackageUnit{{
		Path: p.Path, Files: p.Files, Pkg: p.Types, Info: p.Info,
	}})
	// reportUnused is on: a testdata suppression that stops matching is a
	// bug in the test, and it lets testdata assert the unused-suppression
	// findings themselves (analyzer "directive").
	findings, err := analysis.RunProgram(prog, []*analysis.Analyzer{a}, []string{a.Name}, true)
	if err != nil {
		t.Fatal(err)
	}

	wants := collectWants(t, l, p.Files)
	for _, f := range findings {
		key := f.Position.Filename + ":" + strconv.Itoa(f.Position.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.consumed && w.rx.MatchString(f.Message) {
				w.consumed = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s: %s", f.Position, f.Analyzer, f.Message)
		}
	}
	keys := make([]string, 0, len(wants))
	for key := range wants {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		for _, w := range wants[key] {
			if !w.consumed {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.rx)
			}
		}
	}
}

// collectWants parses the want comments of every file.
//
//swlint:allow testonly part of the analyzers' test harness
func collectWants(t *testing.T, l *load.Loader, files []*ast.File) map[string][]*expectation {
	t.Helper()
	wants := make(map[string][]*expectation)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := l.Fset().Position(c.Pos())
				quoted := wantRx.FindAllString(text, -1)
				if len(quoted) == 0 {
					t.Fatalf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, q := range quoted {
					var pattern string
					if strings.HasPrefix(q, "`") {
						pattern = strings.Trim(q, "`")
					} else {
						var err error
						pattern, err = strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
						}
					}
					rx, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pattern, err)
					}
					key := pos.Filename + ":" + strconv.Itoa(pos.Line)
					wants[key] = append(wants[key], &expectation{rx: rx, line: pos.Line})
				}
			}
		}
	}
	return wants
}
