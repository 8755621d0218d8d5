package plugins

import (
	"testing"

	"securityrbsg/internal/registry"
)

// TestBuiltinNone: the table registers the baseline scheme.
func TestBuiltinNone(t *testing.T) {
	s, err := registry.Default.Scheme("none")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Caps.Exact || s.Caps.TimingOracle {
		t.Fatalf("none caps: %+v", s.Caps)
	}
}
