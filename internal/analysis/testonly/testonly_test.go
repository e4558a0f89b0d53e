package testonly_test

import (
	"testing"

	"switchflow/internal/analysis/analysistest"
	"switchflow/internal/analysis/testonly"
)

func TestTestonly(t *testing.T) {
	analysistest.Run(t, testonly.Analyzer, "testonly")
}
