package analysis

import (
	"reflect"
	"testing"
)

// tripFact is a registered fact type for the round-trip tests.
type tripFact struct {
	Free bool
	Why  string
}

func (*tripFact) AFact() {}

func init() { RegisterFact(&tripFact{}) }

// TestFactsRoundTrip proves the .vetx payload contract: EncodePackage
// then DecodePackage into a fresh store reproduces every fact, keyed
// identically, and leaves other packages' facts behind.
func TestFactsRoundTrip(t *testing.T) {
	src := NewFacts()
	src.addPackage("m/a")
	src.set(factKey{pkg: "m/a", obj: "Encode", typ: factType(&tripFact{})},
		&tripFact{Free: true})
	src.set(factKey{pkg: "m/a", obj: "Buffer.Grow", typ: factType(&tripFact{})},
		&tripFact{Why: "make"})
	src.set(factKey{pkg: "m/other", obj: "Stay", typ: factType(&tripFact{})},
		&tripFact{Free: true})

	payload, err := src.EncodePackage("m/a")
	if err != nil {
		t.Fatal(err)
	}

	dst := NewFacts()
	if dst.SeenPackage("m/a") {
		t.Fatal("fresh store claims to have seen m/a")
	}
	if err := dst.DecodePackage("m/a", payload); err != nil {
		t.Fatal(err)
	}
	if !dst.SeenPackage("m/a") {
		t.Error("decoded package not marked as seen")
	}
	got, want := dst.PackageFacts("m/a"), src.PackageFacts("m/a")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed facts:\n got %v\nwant %v", got, want)
	}
	if facts := dst.PackageFacts("m/other"); len(facts) != 0 {
		t.Errorf("foreign package facts leaked through: %v", facts)
	}
}

// TestFactsEmptyPayload pins the "analyzed, no facts" encoding: the
// payload round-trips, marks the package as seen, and stores nothing —
// that is how a dependent distinguishes a clean dependency from one
// the run never reached.
func TestFactsEmptyPayload(t *testing.T) {
	src := NewFacts()
	src.addPackage("m/clean")
	payload, err := src.EncodePackage("m/clean")
	if err != nil {
		t.Fatal(err)
	}

	dst := NewFacts()
	if err := dst.DecodePackage("m/clean", payload); err != nil {
		t.Fatal(err)
	}
	if !dst.SeenPackage("m/clean") {
		t.Error("empty payload must still mark the package as seen")
	}
	if facts := dst.PackageFacts("m/clean"); len(facts) != 0 {
		t.Errorf("empty payload decoded facts: %v", facts)
	}

	// A zero-byte file (the pre-facts vetx format) is also valid.
	if err := dst.DecodePackage("m/legacy", nil); err != nil {
		t.Fatal(err)
	}
	if !dst.SeenPackage("m/legacy") {
		t.Error("nil payload must still mark the package as seen")
	}
}

// TestFactsDecodeGarbage: corrupt payloads fail loudly rather than
// silently dropping facts (a dependent would otherwise mistake the
// dependency for fact-free and trust it).
func TestFactsDecodeGarbage(t *testing.T) {
	dst := NewFacts()
	if err := dst.DecodePackage("m/bad", []byte("not gob")); err == nil {
		t.Fatal("decoding garbage succeeded, want error")
	}
}
