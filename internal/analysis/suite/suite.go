// Package suite registers the full swlint analyzer suite. cmd/swlint and
// the repo-wide self-check test both consume it, so adding an analyzer
// here wires it into the CLI, make lint, CI, and the smoke test at once.
package suite

import (
	"switchflow/internal/analysis"
	"switchflow/internal/analysis/counterflow"
	"switchflow/internal/analysis/detrand"
	"switchflow/internal/analysis/durconv"
	"switchflow/internal/analysis/epochsafe"
	"switchflow/internal/analysis/locksafe"
	"switchflow/internal/analysis/maporder"
	"switchflow/internal/analysis/obspair"
	"switchflow/internal/analysis/sentinelval"
	"switchflow/internal/analysis/simclock"
	"switchflow/internal/analysis/testonly"
)

// Analyzers returns the full suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		counterflow.Analyzer,
		detrand.Analyzer,
		durconv.Analyzer,
		epochsafe.Analyzer,
		locksafe.Analyzer,
		maporder.Analyzer,
		obspair.Analyzer,
		sentinelval.Analyzer,
		simclock.Analyzer,
		testonly.Analyzer,
	}
}

// Names returns the analyzer names, for directive validation and -run
// filters.
func Names() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}
