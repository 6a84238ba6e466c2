// Package callgraph builds and represents call graphs over the IR. Two
// builders are provided: a fast class-hierarchy analysis (CHA) used during
// callback discovery, and a points-to-refined builder (in internal/pta,
// the stand-in for Soot's Spark) used for the final graph the taint
// analysis runs on.
package callgraph

import (
	"context"
	"slices"
	"sort"
	"strings"
	"sync"

	"flowdroid/internal/ir"
	"flowdroid/internal/metrics"
)

// Graph is a call graph: a set of entry methods, call edges from call
// statements to target methods, and the derived reachable-method set.
type Graph struct {
	Entries []*ir.Method

	calleesOf map[ir.Stmt][]*ir.Method
	callersOf map[*ir.Method][]ir.Stmt
	reachable []*ir.Method
	reachSet  map[*ir.Method]bool
}

// NewGraph creates an empty graph with the given entry points.
func NewGraph(entries ...*ir.Method) *Graph {
	g := &Graph{
		Entries:   entries,
		calleesOf: make(map[ir.Stmt][]*ir.Method),
		callersOf: make(map[*ir.Method][]ir.Stmt),
		reachSet:  make(map[*ir.Method]bool),
	}
	for _, e := range entries {
		g.markReachable(e)
	}
	return g
}

// AddEdge records that call site s may invoke target. Duplicate edges are
// ignored. The target becomes reachable.
func (g *Graph) AddEdge(s ir.Stmt, target *ir.Method) {
	for _, t := range g.calleesOf[s] {
		if t == target {
			return
		}
	}
	g.calleesOf[s] = append(g.calleesOf[s], target)
	g.callersOf[target] = append(g.callersOf[target], s)
	g.markReachable(target)
}

func (g *Graph) markReachable(m *ir.Method) {
	if !g.reachSet[m] {
		g.reachSet[m] = true
		g.reachable = append(g.reachable, m)
	}
}

// CalleesOf returns the possible targets of the call statement s.
func (g *Graph) CalleesOf(s ir.Stmt) []*ir.Method { return g.calleesOf[s] }

// CallersOf returns the call statements that may invoke m.
func (g *Graph) CallersOf(m *ir.Method) []ir.Stmt { return g.callersOf[m] }

// Reachable returns all reachable methods in discovery order.
func (g *Graph) Reachable() []*ir.Method { return g.reachable }

// IsReachable reports whether m is reachable from the entries.
func (g *Graph) IsReachable(m *ir.Method) bool { return g.reachSet[m] }

// exportMetrics publishes the graph's size gauges when the context
// carries a recorder. Both builders (CHA here, the points-to builder in
// internal/pta via the pipeline) converge on the same gauge names; the
// values are structural facts of the program and configuration, hence
// deterministic.
func (g *Graph) exportMetrics(ctx context.Context) {
	rec := metrics.From(ctx)
	if rec == nil {
		return
	}
	rec.Gauge("callgraph.edges", metrics.Deterministic).Set(int64(g.NumEdges()))
	rec.Gauge("callgraph.reachable", metrics.Deterministic).Set(int64(len(g.Reachable())))
}

// NumEdges returns the total number of call edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, ts := range g.calleesOf {
		n += len(ts)
	}
	return n
}

// ReachesTransitively reports whether any method of the call site s's
// callee subtree is the method m, i.e. whether invoking s can transitively
// execute m. The taint analysis uses this to decide whether a call site
// can activate an inactive alias taint (activation statements represent
// call trees).
func (g *Graph) ReachesTransitively(s ir.Stmt, m *ir.Method) bool {
	seen := make(map[*ir.Method]bool)
	var stack []*ir.Method
	for _, t := range g.calleesOf[s] {
		if !seen[t] {
			seen[t] = true
			stack = append(stack, t)
		}
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == m {
			return true
		}
		for _, site := range callsIn(cur) {
			for _, t := range g.calleesOf[site] {
				if !seen[t] {
					seen[t] = true
					stack = append(stack, t)
				}
			}
		}
	}
	return false
}

func callsIn(m *ir.Method) []ir.Stmt {
	var out []ir.Stmt
	for _, s := range m.Body() {
		if ir.IsCall(s) {
			out = append(out, s)
		}
	}
	return out
}

// Resolver resolves the possible runtime targets of invocation
// expressions against a program model using declared types and the class
// hierarchy (CHA). The PTA builder refines virtual calls; everything else
// shares this logic. Resolution is memoized per declared (class, name,
// arity) site, so a resolver is cheapest when long-lived — the scene
// layer keeps one per program and hands it to every phase.
type Resolver struct {
	h ir.Hierarchy
	// names index every class's methods by (name, nargs), for the
	// fallback when no declared type is available. The scene layer passes
	// a shared index over the frozen framework plus one over the app's
	// own classes.
	names []*NameIndex

	mu        sync.Mutex
	virtCache map[virtKey][]*ir.Method
}

// NameIndex finds every method declared under a name and arity. It is
// read-only once built, so one index over a frozen program can serve
// every resolver concurrently.
type NameIndex struct {
	methods []*ir.Method // by name, arity, then class name
}

// IndexNames builds the name index over classes.
func IndexNames(classes []*ir.Class) *NameIndex {
	n := 0
	for _, c := range classes {
		n += len(c.Methods())
	}
	x := &NameIndex{methods: make([]*ir.Method, 0, n)}
	for _, c := range classes {
		x.methods = append(x.methods, c.Methods()...)
	}
	slices.SortFunc(x.methods, compareByName)
	return x
}

// compareByName orders methods by name, arity, then class name.
func compareByName(a, b *ir.Method) int {
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	if c := len(a.Params) - len(b.Params); c != 0 {
		return c
	}
	return strings.Compare(a.Class.Name, b.Class.Name)
}

// Named returns the indexed methods called name with nargs parameters.
// The slice is shared and must not be mutated.
func (x *NameIndex) Named(name string, nargs int) []*ir.Method {
	i := sort.Search(len(x.methods), func(i int) bool {
		m := x.methods[i]
		return m.Name > name || m.Name == name && len(m.Params) >= nargs
	})
	j := i
	for j < len(x.methods) && x.methods[j].Name == name && len(x.methods[j].Params) == nargs {
		j++
	}
	return x.methods[i:j:j]
}

// virtKey identifies a virtual dispatch question: the declared receiver
// class plus the invoked signature. Every call site with the same key has
// the same CHA target set.
type virtKey struct {
	class string
	name  string
	nargs int
}

// NewResolver builds a resolver (and its name index) over a program
// model. Passing a cached hierarchy (scene.Scene) makes the subtype and
// member lookups O(1); passing *ir.Program preserves the historical
// walk-per-query behaviour.
func NewResolver(h ir.Hierarchy) *Resolver {
	return NewResolverOver(h, IndexNames(h.Classes()))
}

// NewResolverOver builds a resolver over h whose name-based fallback
// reads the given indexes, which together must cover every class of h
// exactly once. The indexes are only read, so they may be shared.
func NewResolverOver(h ir.Hierarchy, names ...*NameIndex) *Resolver {
	return &Resolver{h: h, names: names, virtCache: make(map[virtKey][]*ir.Method)}
}

// ResolverProvider is implemented by program models that keep a shared,
// long-lived resolver (the scene layer). ResolverFor adopts it so the
// name index and dispatch cache are built once per program instead of
// once per call-graph construction.
type ResolverProvider interface {
	Resolver() *Resolver
}

// ResolverFor returns h's shared resolver when it provides one, and a
// fresh resolver otherwise.
func ResolverFor(h ir.Hierarchy) *Resolver {
	if rp, ok := h.(ResolverProvider); ok {
		if r := rp.Resolver(); r != nil {
			return r
		}
	}
	return NewResolver(h)
}

// StaticTargets resolves non-virtual calls (static and special invokes)
// and returns nil for virtual ones.
func (r *Resolver) StaticTargets(e *ir.InvokeExpr) []*ir.Method {
	switch e.Kind {
	case ir.StaticInvoke, ir.SpecialInvoke:
		if m := r.h.ResolveMethod(e.Ref.Class, e.Ref.Name, e.Ref.NArgs); m != nil {
			return []*ir.Method{m}
		}
	}
	return nil
}

// VirtualTargets resolves a virtual call with CHA: every subtype of the
// declared receiver class contributes the method it would dispatch to. If
// the declared class is unknown or resolves nothing, it falls back to all
// same-name declarations program-wide. Results are cached per declared
// site and returned in deterministic (sorted) order; callers must not
// mutate the returned slice.
func (r *Resolver) VirtualTargets(e *ir.InvokeExpr) []*ir.Method {
	declared := e.Ref.Class
	if e.Base != nil && e.Base.Type.IsRef() {
		declared = e.Base.Type.Name
	}
	k := virtKey{declared, e.Ref.Name, e.Ref.NArgs}
	r.mu.Lock()
	cached, ok := r.virtCache[k]
	r.mu.Unlock()
	if ok {
		return cached
	}
	targets := make(map[*ir.Method]bool)
	if declared != "" && r.h.Class(declared) != nil {
		for _, sub := range r.h.SubtypesOf(declared) {
			if c := r.h.Class(sub); c != nil && c.Interface {
				continue
			}
			if m := r.h.ResolveMethod(sub, e.Ref.Name, e.Ref.NArgs); m != nil {
				targets[m] = true
			}
		}
	}
	if len(targets) == 0 {
		for _, x := range r.names {
			for _, m := range x.Named(e.Ref.Name, e.Ref.NArgs) {
				targets[m] = true
			}
		}
	}
	// Sort by rendered signature, rendering each once. Signatures are
	// unique within a program, so the order is total.
	keyed := make([]keyedMethod, 0, len(targets))
	for m := range targets {
		keyed = append(keyed, keyedMethod{m.String(), m})
	}
	slices.SortFunc(keyed, func(a, b keyedMethod) int { return strings.Compare(a.key, b.key) })
	out := make([]*ir.Method, len(keyed))
	for i, km := range keyed {
		out[i] = km.m
	}
	r.mu.Lock()
	r.virtCache[k] = out
	r.mu.Unlock()
	return out
}

type keyedMethod struct {
	key string
	m   *ir.Method
}

// TargetsOf resolves all possible targets of an invocation with CHA.
func (r *Resolver) TargetsOf(e *ir.InvokeExpr) []*ir.Method {
	if ts := r.StaticTargets(e); ts != nil {
		return ts
	}
	if e.Kind == ir.VirtualInvoke {
		return r.VirtualTargets(e)
	}
	return nil
}

// DispatchOn resolves a virtual call for a single concrete receiver type,
// as the points-to builder does per allocation site.
func (r *Resolver) DispatchOn(runtimeClass string, e *ir.InvokeExpr) *ir.Method {
	return r.h.ResolveMethod(runtimeClass, e.Ref.Name, e.Ref.NArgs)
}

// BuildCHA constructs a call graph by class-hierarchy analysis from the
// given entry points, exploring only methods with bodies. A cancelled
// context stops the exploration early and yields the partial graph built
// so far. When h carries a shared resolver (scene.Scene), it is reused
// instead of re-indexing the program.
func BuildCHA(ctx context.Context, h ir.Hierarchy, entries ...*ir.Method) *Graph {
	return BuildCHAWithExtra(ctx, h, nil, entries...)
}

// BuildCHAWithExtra is BuildCHA with additional resolved call edges —
// site statement to target method — merged into the exploration. The
// constant-propagation pass supplies resolved reflective sites this
// way: each extra target is a synthesized bridge method that becomes
// reachable (and explorable) exactly like a statically resolved callee.
func BuildCHAWithExtra(ctx context.Context, h ir.Hierarchy, extra map[ir.Stmt][]*ir.Method, entries ...*ir.Method) *Graph {
	g := NewGraph(entries...)
	defer g.exportMetrics(ctx)
	r := ResolverFor(h)
	seen := make(map[*ir.Method]bool)
	work := append([]*ir.Method(nil), entries...)
	steps := 0
	for len(work) > 0 {
		steps++
		if steps%256 == 0 && ctx.Err() != nil {
			return g
		}
		m := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[m] {
			continue
		}
		seen[m] = true
		for _, s := range m.Body() {
			call := ir.CallOf(s)
			if call == nil {
				continue
			}
			for _, t := range r.TargetsOf(call) {
				g.AddEdge(s, t)
				if !seen[t] && !t.Abstract() {
					work = append(work, t)
				}
			}
			for _, t := range extra[s] {
				g.AddEdge(s, t)
				if !seen[t] && !t.Abstract() {
					work = append(work, t)
				}
			}
		}
	}
	return g
}
