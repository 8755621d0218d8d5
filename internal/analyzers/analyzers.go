// Package analyzers registers the rbsglint suite: the custom static
// checks that turn this repo's prose contracts (deterministic
// simulation, single-writer banks, panic-free data paths, alloc-free
// hot paths) into CI failures. See DESIGN.md "Mechanized invariants"
// for the catalogue.
package analyzers

import (
	"securityrbsg/internal/analyzers/analysis"
	"securityrbsg/internal/analyzers/bankisolation"
	"securityrbsg/internal/analyzers/hotpathalloc"
	"securityrbsg/internal/analyzers/panicpolicy"
	"securityrbsg/internal/analyzers/simdeterminism"
)

// All returns the full rbsglint suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		simdeterminism.Analyzer,
		bankisolation.Analyzer,
		panicpolicy.Analyzer,
		hotpathalloc.Analyzer,
	}
}
