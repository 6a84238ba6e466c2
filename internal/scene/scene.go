// Package scene provides the shared program-model layer every analysis
// phase queries: the analogue of Soot's Scene in FlowDroid's pipeline
// (Arzt et al., PLDI 2014). A Scene wraps an ir.Program with precomputed
// subtype sets, memoized method and field resolution, a shared
// invoke-target resolver, and a synchronized per-method CFG cache, so the
// callback analysis, Spark stand-in (pta), CHA builder, ICFG and taint
// engine all hit one memoized substrate instead of re-walking the class
// graph per query.
//
// The hierarchy index has two layers. The classes of the program's
// frozen base (ir.Program.Base: the shared framework model) are indexed
// once per process, and every scene over a fork of that base reads the
// same index. Each scene indexes only the program's own classes on top,
// plus the few base classes that reach a name only the program declares.
// Refresh re-indexes that top layer; the base layer never changes.
//
// A Scene implements ir.Hierarchy with semantics identical to
// *ir.Program (the tests cross-check both on adversarial hierarchies,
// including cyclic ones and bases that name app-declared supertypes).
// Reads are safe for concurrent use; Refresh — required after the
// program gains classes or members, e.g. dummy-main generation — must
// not race with readers.
package scene

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"flowdroid/internal/callgraph"
	"flowdroid/internal/cfg"
	"flowdroid/internal/ir"
)

// Scene is the cached program model. Create with New, refresh after
// mutating the underlying program's class set.
type Scene struct {
	prog *ir.Program

	// base indexes prog's frozen base and is shared with every scene over
	// the same base. top indexes prog's own classes over it; Refresh
	// replaces it and never changes either.
	base, top *index

	// Lazy, synchronized resolution caches.
	mu          sync.RWMutex
	methodCache map[memberKey]*ir.Method
	fieldCache  map[memberKey]*ir.Field

	resolverOnce sync.Once
	resolver     *callgraph.Resolver

	cfgs *cfg.Cache

	subtypeQueries           atomic.Int64
	methodHits, methodMisses atomic.Int64
	fieldHits, fieldMisses   atomic.Int64
	refreshes                int64
}

// memberKey identifies a member-resolution question. nargs is unused
// (-1) for field lookups.
type memberKey struct {
	class string
	name  string
	nargs int
}

// index is one layer of the hierarchy index: the facts about a set of
// classes, laid over the index of the layer below. Lookups consult the
// layer first and fall through to the one below. An index is read-only
// once built.
type index struct {
	// classes holds the classes of both layers and own this layer's,
	// each in name order.
	classes, own []*ir.Class
	// supers maps each class this layer indexed to its transitive
	// supertypes (self excluded).
	supers map[string]map[string]bool
	// subtypes maps each name whose subtype list this layer extended to
	// the whole list: sorted, self included when declared.
	subtypes map[string][]string
	// names is the resolver's name index over own. A shared base builds
	// it with the layer; a scene's resolver builds its own lazily.
	names *callgraph.NameIndex
}

// empty is the layer under a base, and the base of a program without one.
var empty = &index{names: callgraph.IndexNames(nil)}

// bases holds the shared index of every frozen base seen so far, keyed
// by program. A process normally has one, the framework model's, and it
// lives as long as the process, like the base itself.
var bases sync.Map // *ir.Program -> func() *index

// baseIndex returns the index over base's classes, building it on first
// use. A nil base has the empty index.
func baseIndex(base *ir.Program) *index {
	if base == nil {
		return empty
	}
	f, ok := bases.Load(base)
	if !ok {
		f, _ = bases.LoadOrStore(base, sync.OnceValue(func() *index {
			x := build(base, base.Classes(), empty)
			x.names = callgraph.IndexNames(x.own)
			return x
		}))
	}
	return f.(func() *index)()
}

// build indexes the classes own of prog over the layer under, which
// holds exactly prog's other classes.
//
// The layer below may be open: one of its classes may name a supertype
// that it does not declare and own does. That class's supertypes then
// grow through own, so build re-indexes it in this layer. The classes
// below that reach an own class's name are exactly that name's subtypes
// below, since the name is undeclared there. Every other class below
// keeps its supertypes: each name it reaches is declared below or
// nowhere.
func build(prog *ir.Program, own []*ir.Class, under *index) *index {
	x := &index{
		classes:  merge(under.classes, own, func(c *ir.Class) string { return c.Name }),
		own:      own,
		supers:   make(map[string]map[string]bool, len(own)),
		subtypes: make(map[string][]string),
	}
	var reopened []string
	for _, c := range own {
		for _, sub := range under.subtypes[c.Name] {
			if _, dup := x.supers[sub]; !dup {
				x.supers[sub] = nil // walk must expand it, not reuse under's answer
				reopened = append(reopened, sub)
			}
		}
	}
	// added collects the names each subtype list gains in this layer.
	added := make(map[string][]string)
	for _, c := range own {
		sup := x.walk(prog, c.Name, under)
		x.supers[c.Name] = sup
		added[c.Name] = append(added[c.Name], c.Name)
		for s := range sup {
			added[s] = append(added[s], c.Name)
		}
	}
	for _, name := range reopened {
		sup := x.walk(prog, name, under)
		x.supers[name] = sup
		for s := range sup {
			if !under.supers[name][s] {
				added[s] = append(added[s], name)
			}
		}
	}
	for s, subs := range added {
		sort.Strings(subs)
		x.subtypes[s] = merge(under.subtypes[s], subs, func(n string) string { return n })
	}
	return x
}

// walk collects every name reachable from start along superclass and
// interface edges, start excluded. Names of missing classes are included
// (they are valid supertypes per Program.SubtypeOf) but contribute no
// further edges; cycles are tolerated. A class below that x does not
// re-index contributes its supertypes from under at once: by build's
// argument they are closed under this walk.
func (x *index) walk(prog *ir.Program, start string, under *index) map[string]bool {
	out := make(map[string]bool)
	work := []string{start}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		if sup, ok := under.supers[name]; ok && name != start {
			if _, reindexed := x.supers[name]; !reindexed {
				for s := range sup {
					out[s] = true
				}
				continue
			}
		}
		c := prog.Class(name)
		if c == nil {
			continue
		}
		for _, e := range c.Interfaces {
			if e != start && !out[e] {
				out[e] = true
				work = append(work, e)
			}
		}
		if e := c.Super; e != "" && e != start && !out[e] {
			out[e] = true
			work = append(work, e)
		}
	}
	return out
}

// merge merges two lists sorted by key, with no key in both, into a new
// slice; neither input is written.
func merge[T any](a, b []T, key func(T) string) []T {
	out := make([]T, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if strings.Compare(key(a[0]), key(b[0])) < 0 {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// New builds a Scene over prog, precomputing the type hierarchy eagerly.
// A nil program yields a scene over an empty one, so a malformed app
// fails in the stage that actually dereferences it, not here.
func New(prog *ir.Program) *Scene {
	if prog == nil {
		prog = ir.NewProgram()
	}
	s := &Scene{prog: prog, base: baseIndex(prog.Base()), cfgs: cfg.NewCache()}
	s.rebuild()
	return s
}

// Program returns the wrapped program.
func (s *Scene) Program() *ir.Program { return s.prog }

// Refresh re-indexes the program's own classes and drops the resolution
// caches after the underlying program changed (classes or members
// added). The shared base index stays, and so does the CFG cache: method
// bodies are immutable once finalized, so existing CFGs stay valid and
// new methods fill in lazily.
func (s *Scene) Refresh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rebuild()
	s.refreshes++
}

// rebuild re-indexes the program's own classes over the base. Callers
// hold s.mu (or own s exclusively, as New does).
func (s *Scene) rebuild() {
	s.top = build(s.prog, s.prog.OwnClasses(), s.base)
	s.methodCache = make(map[memberKey]*ir.Method)
	s.fieldCache = make(map[memberKey]*ir.Field)
	// The resolver indexes the old class set; rebuild it lazily.
	s.resolverOnce = sync.Once{}
	s.resolver = nil
}

// Class returns the named class, or nil.
func (s *Scene) Class(name string) *ir.Class { return s.prog.Class(name) }

// Classes returns all classes in name order. The slice is shared and
// must not be mutated.
func (s *Scene) Classes() []*ir.Class { return s.top.classes }

// SubtypeOf reports whether sub is the same as, a subclass of, or an
// implementor of super. O(1) against the precomputed sets.
func (s *Scene) SubtypeOf(sub, super string) bool {
	s.subtypeQueries.Add(1)
	if sub == super {
		return true
	}
	if sup, ok := s.top.supers[sub]; ok {
		return sup[super]
	}
	return s.base.supers[sub][super]
}

// SubtypesOf returns the names of every class that is a subtype of the
// named class or interface (including itself if declared), in name
// order. The slice is shared and must not be mutated.
func (s *Scene) SubtypesOf(name string) []string {
	s.subtypeQueries.Add(1)
	if subs, ok := s.top.subtypes[name]; ok {
		return subs
	}
	return s.base.subtypes[name]
}

// ResolveMethod finds the method (name, nargs) starting at class and
// walking up the superclass chain, then the transitive interfaces.
// Results — including misses — are memoized.
func (s *Scene) ResolveMethod(class, name string, nargs int) *ir.Method {
	k := memberKey{class, name, nargs}
	s.mu.RLock()
	m, ok := s.methodCache[k]
	s.mu.RUnlock()
	if ok {
		s.methodHits.Add(1)
		return m
	}
	s.methodMisses.Add(1)
	m = s.prog.ResolveMethod(class, name, nargs)
	s.mu.Lock()
	s.methodCache[k] = m
	s.mu.Unlock()
	return m
}

// ResolveField finds the field by name starting at class and walking up
// the superclass chain. Results — including misses — are memoized.
func (s *Scene) ResolveField(class, name string) *ir.Field {
	k := memberKey{class, name, -1}
	s.mu.RLock()
	f, ok := s.fieldCache[k]
	s.mu.RUnlock()
	if ok {
		s.fieldHits.Add(1)
		return f
	}
	s.fieldMisses.Add(1)
	f = s.prog.ResolveField(class, name)
	s.mu.Lock()
	s.fieldCache[k] = f
	s.mu.Unlock()
	return f
}

// Resolver returns the scene's shared invoke-target resolver, built on
// first use. It implements callgraph.ResolverProvider, so BuildCHA and
// the points-to builder adopt it automatically.
func (s *Scene) Resolver() *callgraph.Resolver {
	s.resolverOnce.Do(func() {
		s.resolver = callgraph.NewResolverOver(s, s.base.names, callgraph.IndexNames(s.top.own))
	})
	return s.resolver
}

// CFGs returns the scene's shared per-method CFG cache. It implements
// cfg.CacheProvider, so NewICFG adopts it automatically: CFGs survive
// call-graph swaps and degrade-ladder retries.
func (s *Scene) CFGs() *cfg.Cache { return s.cfgs }

// Stats is a snapshot of the scene's cache effectiveness counters.
type Stats struct {
	Classes        int
	SubtypeQueries int64
	MethodHits     int64
	MethodMisses   int64
	FieldHits      int64
	FieldMisses    int64
	CFGHits        int64
	CFGMisses      int64
	Refreshes      int64
}

// Stats returns a snapshot of the scene's counters.
func (s *Scene) Stats() Stats {
	s.mu.RLock()
	refreshes := s.refreshes
	classes := len(s.top.classes)
	s.mu.RUnlock()
	cfgHits, cfgMisses := s.cfgs.Stats()
	return Stats{
		Classes:        classes,
		SubtypeQueries: s.subtypeQueries.Load(),
		MethodHits:     s.methodHits.Load(),
		MethodMisses:   s.methodMisses.Load(),
		FieldHits:      s.fieldHits.Load(),
		FieldMisses:    s.fieldMisses.Load(),
		CFGHits:        cfgHits,
		CFGMisses:      cfgMisses,
		Refreshes:      refreshes,
	}
}

// Hierarchy interface conformance (compile-time checks).
var (
	_ ir.Hierarchy               = (*Scene)(nil)
	_ ir.Hierarchy               = (*ir.Program)(nil)
	_ callgraph.ResolverProvider = (*Scene)(nil)
	_ cfg.CacheProvider          = (*Scene)(nil)
)
