package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"sync"
)

// A Fact is a typed datum an analyzer computes about a package-level
// object (or a whole package) and that the framework carries across
// package boundaries: facts exported while analyzing a dependency are
// importable while analyzing its dependents, in both the standalone
// loader (packages processed in `go list -deps` dependency order) and
// the `go vet -vettool` protocol (facts serialized into the .vetx file
// cmd/go passes between compilations).
//
// Concrete fact types must be pointers to gob-encodable structs and must
// be registered once with RegisterFact (analyzers do this in init()).
// The zero value of a fact must be meaningful: ImportObjectFact copies
// the stored fact into the caller's pointer.
type Fact interface{ AFact() }

// RegisterFact registers a concrete fact type for (de)serialization.
// Call it from the analyzer package's init() for every fact type listed
// in Analyzer.FactTypes.
func RegisterFact(f Fact) { gob.Register(f) }

// factKey identifies one stored fact: the package, the object within it
// ("" for package-level facts, "Name" for package-scope objects,
// "Recv.Name" for methods), and the concrete fact type.
type factKey struct {
	pkg string
	obj string
	typ string
}

func factType(f Fact) string { return reflect.TypeOf(f).String() }

// Facts is the cross-package fact store for one analysis run. It is
// safe for use from a single goroutine (the framework runs passes
// sequentially); the mutex exists so diagnostic tooling may inspect it
// concurrently.
type Facts struct {
	mu   sync.Mutex
	m    map[factKey]Fact
	pkgs map[string]bool // packages whose facts are present (even if none)
}

// NewFacts returns an empty store.
func NewFacts() *Facts {
	return &Facts{m: map[factKey]Fact{}, pkgs: map[string]bool{}}
}

// addPackage marks path as analyzed: its facts (possibly none) are in
// the store, so a missing fact means "known not to hold", not "unknown".
func (f *Facts) addPackage(path string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pkgs[path] = true
}

// SeenPackage reports whether path's facts are present in the store.
// Analyzers use it to distinguish "dependency analyzed, fact absent"
// from "dependency never analyzed" (e.g. a vet compilation whose .vetx
// files cmd/go did not provide) and degrade conservatively.
func (f *Facts) SeenPackage(path string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pkgs[path]
}

func (f *Facts) set(k factKey, fact Fact) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m[k] = fact
}

func (f *Facts) get(k factKey) (Fact, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fact, ok := f.m[k]
	return fact, ok
}

// factRecord is the serialized form of one fact.
type factRecord struct {
	Obj  string
	Fact Fact // concrete type must be gob-registered
}

// ObjectFact is one exported fact with its owning object, as returned
// by PackageFacts (test harness support).
type ObjectFact struct {
	Obj  string
	Fact Fact
}

// PackageFacts lists every fact stored for path, sorted by object then
// fact type (deterministic for tests and serialization).
func (f *Facts) PackageFacts(path string) []ObjectFact {
	f.mu.Lock()
	defer f.mu.Unlock()
	var keys []factKey
	for k := range f.m {
		if k.pkg == path {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].obj != keys[j].obj {
			return keys[i].obj < keys[j].obj
		}
		return keys[i].typ < keys[j].typ
	})
	out := make([]ObjectFact, 0, len(keys))
	for _, k := range keys {
		out = append(out, ObjectFact{Obj: k.obj, Fact: f.m[k]})
	}
	return out
}

// EncodePackage serializes every fact of one package (the payload of a
// .vetx file). Encoding an analyzed package with no facts yields a
// valid, decodable empty payload — presence of the file is itself the
// "this package was analyzed" marker.
func (f *Facts) EncodePackage(path string) ([]byte, error) {
	recs := f.PackageFacts(path)
	var out []factRecord
	for _, r := range recs {
		out = append(out, factRecord{Obj: r.Obj, Fact: r.Fact})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(out); err != nil {
		return nil, fmt.Errorf("encoding facts for %s: %w", path, err)
	}
	return buf.Bytes(), nil
}

// DecodePackage loads a package's serialized facts into the store and
// marks the package as analyzed. An empty payload is valid (analyzed,
// no facts). Unknown fact types fail: the encoder and decoder must run
// the same analyzer suite.
func (f *Facts) DecodePackage(path string, data []byte) error {
	f.addPackage(path)
	if len(data) == 0 {
		return nil
	}
	var recs []factRecord
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&recs); err != nil {
		return fmt.Errorf("decoding facts for %s: %w", path, err)
	}
	for _, r := range recs {
		f.set(factKey{pkg: path, obj: r.Obj, typ: factType(r.Fact)}, r.Fact)
	}
	return nil
}

// ObjectKey maps a types.Object to its stable cross-package fact key:
// "Name" for package-scope objects, "Recv.Name" for methods of named
// types. Objects that are neither (locals, fields, interface methods
// without a concrete receiver) have no key and carry no facts.
func ObjectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return named.Obj().Name() + "." + fn.Name(), true
		}
		return fn.Name(), true
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Name(), true
	}
	return "", false
}

// ExportObjectFact attaches fact to obj, which must belong to the
// package under analysis and be package-level (or a method of a named
// package-level type). Facts on other objects are silently dropped —
// they could never be addressed from another package.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		return
	}
	key, ok := ObjectKey(obj)
	if !ok {
		return
	}
	p.facts.set(factKey{pkg: p.Pkg.Path(), obj: key, typ: factType(fact)}, fact)
}

// ImportObjectFact copies the stored fact for obj into fact (a pointer
// to the same concrete type), reporting whether one was found. It works
// for objects of the package under analysis (facts exported earlier in
// the same pass) and of any analyzed dependency.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	key, ok := ObjectKey(obj)
	if !ok {
		return false
	}
	stored, ok := p.facts.get(factKey{pkg: obj.Pkg().Path(), obj: key, typ: factType(fact)})
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// SeenPackage reports whether path was analyzed in this run (its facts,
// possibly none, are available).
func (p *Pass) SeenPackage(path string) bool { return p.facts.SeenPackage(path) }
