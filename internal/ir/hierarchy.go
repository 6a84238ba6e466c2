package ir

// Hierarchy is the program-model query surface the analyses resolve
// against: class lookup, subtyping, and member resolution. *Program
// implements it by walking the class graph on every call;
// internal/scene.Scene implements it with precomputed subtype sets and
// memoized resolution so that every downstream phase queries one shared,
// cached substrate (the analogue of Soot's Scene).
//
// Implementations must agree with *Program's semantics exactly; the
// scene package's tests cross-check the two on adversarial hierarchies.
//
// Slices a Hierarchy returns may be shared, and so may each class's
// Methods(): a frozen framework class's method list is read by every
// program in the process. Callers must not mutate any of them.
type Hierarchy interface {
	// Class returns the named class, or nil.
	Class(name string) *Class
	// Classes returns all classes in name order. Callers must not mutate
	// the returned slice.
	Classes() []*Class
	// SubtypeOf reports whether sub is the same as, a subclass of, or an
	// implementor of super.
	SubtypeOf(sub, super string) bool
	// SubtypesOf returns the names of every class that is a subtype of
	// the named class or interface, in name order. Callers must not
	// mutate the returned slice (cached implementations share it).
	SubtypesOf(name string) []string
	// ResolveMethod finds the method (name, nargs) starting at class and
	// walking up the superclass chain, then the transitive interfaces.
	ResolveMethod(class, name string, nargs int) *Method
	// ResolveField finds the field by name starting at class and walking
	// up the superclass chain.
	ResolveField(class, name string) *Field
}
