package lint_test

import (
	"testing"

	"comic/internal/lint"
	"comic/internal/lint/analysistest"
)

func TestShadow(t *testing.T) {
	analysistest.Run(t, "testdata", lint.ShadowAnalyzer, "shadow")
}
