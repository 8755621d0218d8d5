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
// also checks its own fact wants.
func TestCrossPackageFacts(t *testing.T) {
	analysistest.Run(t, hotpathalloc.Analyzer, "securityrbsg/hot/dep", "securityrbsg/hot/use")
}
