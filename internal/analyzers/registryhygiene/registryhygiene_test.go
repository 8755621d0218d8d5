package registryhygiene_test

import (
	"testing"

	"securityrbsg/internal/analyzers/analysistest"
	"securityrbsg/internal/analyzers/registryhygiene"
)

// TestHygiene analyzes the whole fixture module, which the loader
// orders by imports: plugin packages first (their RegistersPlugins
// facts feed the blank-import check), then plugins (which also scans
// the fixture tree for orphaned register.go files), then the package
// that escapes the import cycle by importing plugins itself.
func TestHygiene(t *testing.T) {
	analysistest.Run(t, registryhygiene.Analyzer,
		"securityrbsg/internal/goodscheme",
		"securityrbsg/internal/stray",
		"securityrbsg/internal/orphan",
		"securityrbsg/internal/noreg",
		"securityrbsg/internal/plugins",
		"securityrbsg/internal/selfimport",
	)
}
