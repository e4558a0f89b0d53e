// Package durconv reports conversions of a floating-point value to
// time.Duration. Go leaves the conversion of an out-of-range float to an
// integer implementation-defined: amd64 gives MinInt64, so a delay one
// draw too large lands in the past, while arm64 saturates. The same class
// of overflow was fixed one site at a time four times before this rule.
// Production code converts through sim.Nanos, which truncates in range
// and saturates out of it.
//
// Constant conversions are not reported: the compiler rejects a constant
// that does not fit. sim.Nanos itself carries the one
// //swlint:allow durconv directive.
package durconv

import (
	"go/ast"
	"go/types"

	"switchflow/internal/analysis"
)

// Analyzer is the durconv check.
var Analyzer = &analysis.Analyzer{
	Name: "durconv",
	Doc:  "no float-to-time.Duration conversions; out of range they are implementation-defined, so use sim.Nanos",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			fun, ok := pass.TypesInfo.Types[call.Fun]
			if !ok || !fun.IsType() {
				return true
			}
			if path, _ := analysis.NamedTypePath(types.Unalias(fun.Type)); path != "time.Duration" {
				return true
			}
			arg := pass.TypesInfo.Types[call.Args[0]]
			if arg.Type == nil || arg.Value != nil {
				return true
			}
			if b, ok := arg.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				pass.Reportf(call.Pos(),
					"float-to-time.Duration conversion is implementation-defined out of range; use sim.Nanos")
			}
			return true
		})
	}
	return nil
}
