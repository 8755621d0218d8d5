package hotpathalloc_test

import (
	"testing"

	"securityrbsg/internal/analyzers/analysistest"
	"securityrbsg/internal/analyzers/hotpathalloc"
)

func TestConstructsAndExemptions(t *testing.T) {
	analysistest.Run(t, hotpathalloc.Analyzer, "securityrbsg/hot/a")
}

// TestCrossPackageFacts checks that violations in securityrbsg/hot/use
// are detected purely through AllocProfile facts imported from
// securityrbsg/hot/dep, which the loader analyzes first. Naming dep
// also checks its own fact wants; naming use alone makes the loader
// analyze dep for its facts only, and use's wants must still match.
func TestCrossPackageFacts(t *testing.T) {
	t.Run("dep named", func(t *testing.T) {
		analysistest.Run(t, hotpathalloc.Analyzer, "securityrbsg/hot/dep", "securityrbsg/hot/use")
	})
	t.Run("dep facts only", func(t *testing.T) {
		analysistest.Run(t, hotpathalloc.Analyzer, "securityrbsg/hot/use")
	})
}
