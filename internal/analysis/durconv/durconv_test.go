package durconv_test

import (
	"testing"

	"switchflow/internal/analysis/analysistest"
	"switchflow/internal/analysis/durconv"
)

func TestDurconv(t *testing.T) {
	analysistest.Run(t, durconv.Analyzer, "durconv")
}
