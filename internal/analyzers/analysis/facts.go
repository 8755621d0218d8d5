package analysis

import (
	"go/types"
	"reflect"
)

// A Fact is a typed datum an analyzer computes about a package-level
// object and that the framework carries across package boundaries:
// Load returns packages in dependency order, so facts exported while
// analyzing a dependency are importable while analyzing its dependents
// in the same run.
//
// Concrete fact types must be pointers to structs. The zero value of a
// fact must be meaningful: ImportObjectFact copies the stored fact into
// the caller's pointer.
type Fact interface{ AFact() }

// FactKey identifies one stored fact: the package path, the object
// within it ("Name" for package-scope objects, "Recv.Name" for methods;
// see ObjectKey), and the concrete fact type.
type FactKey struct {
	Pkg, Obj, Type string
}

func factType(f Fact) string { return reflect.TypeOf(f).String() }

// Facts is the cross-package fact store of one analysis run. Passes
// fill it through ExportObjectFact and read it through
// ImportObjectFact; the framework runs them sequentially.
type Facts map[FactKey]Fact

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
	p.facts[FactKey{Pkg: p.Pkg.Path(), Obj: key, Type: factType(fact)}] = fact
}

// ImportObjectFact copies the stored fact for obj into fact (a pointer
// to the same concrete type), reporting whether one was found. It works
// for objects of the package under analysis (facts exported earlier in
// the same pass) and of any dependency analyzed before it.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	key, ok := ObjectKey(obj)
	if !ok {
		return false
	}
	stored, ok := p.facts[FactKey{Pkg: obj.Pkg().Path(), Obj: key, Type: factType(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}
