package constprop

import (
	"context"
	"fmt"

	"flowdroid/internal/ir"
)

// api discriminates the reflective framework entry points the pass
// models.
type api int

const (
	apiNone api = iota
	apiForName
	apiGetMethod
	apiGetName
	apiNewInstance
	apiInvoke
	apiLoadClass
)

// reflectiveAPI classifies a call expression against the reflection
// surface: Class.forName, Class.getMethod/getDeclaredMethod,
// Class.getName, Class.newInstance, reflect.Method.invoke and
// ClassLoader.loadClass. The second result is the dotted API name used
// in soundness entries and diagnostics.
func reflectiveAPI(call *ir.InvokeExpr) (api, string) {
	switch call.Kind {
	case ir.StaticInvoke:
		if call.Ref.Class == "java.lang.Class" && call.Ref.Name == "forName" && len(call.Args) == 1 {
			return apiForName, "java.lang.Class.forName"
		}
	case ir.VirtualInvoke:
		// The parser leaves Ref.Class empty for receivers whose type is
		// inferred at link time; resolve against the receiver local's
		// type, like the verifier's callee resolution does.
		cls := call.Ref.Class
		if call.Base != nil && call.Base.Type.IsRef() {
			cls = call.Base.Type.Name
		}
		switch cls {
		case "java.lang.Class":
			switch {
			case (call.Ref.Name == "getMethod" || call.Ref.Name == "getDeclaredMethod") && len(call.Args) == 1:
				return apiGetMethod, "java.lang.Class." + call.Ref.Name
			case call.Ref.Name == "getName" && len(call.Args) == 0:
				return apiGetName, "java.lang.Class.getName"
			case call.Ref.Name == "newInstance" && len(call.Args) == 0:
				return apiNewInstance, "java.lang.Class.newInstance"
			}
		case "java.lang.reflect.Method":
			if call.Ref.Name == "invoke" && len(call.Args) >= 1 {
				return apiInvoke, "java.lang.reflect.Method.invoke"
			}
		case "java.lang.ClassLoader":
			if call.Ref.Name == "loadClass" && len(call.Args) == 1 {
				return apiLoadClass, "java.lang.ClassLoader.loadClass"
			}
		}
	}
	return apiNone, ""
}

// UnresolvedReason classifies why a reflective site could not be
// resolved to a constant target set.
type UnresolvedReason string

const (
	// NonConstantString: the class or method name does not resolve to a
	// bounded constant-string set.
	NonConstantString UnresolvedReason = "non-constant string"
	// UnknownClass: the name is constant but no class (or method on it)
	// of that name exists in the analyzed program or framework model.
	UnknownClass UnresolvedReason = "unknown class"
	// DynamicLoading: the site loads code through a ClassLoader; the
	// target can come from outside the analyzed program entirely.
	DynamicLoading UnresolvedReason = "dynamic loading"
)

// UnresolvedSite is one reflective call the analysis had to leave
// opaque — a hole in the call graph the leak report cannot see past.
type UnresolvedSite struct {
	// Method is the enclosing method as "Class.name/arity".
	Method string `json:"method"`
	// Line is the site's source line (0 for synthesized code).
	Line int `json:"line,omitempty"`
	// Call is the dotted reflective API at the site.
	Call string `json:"call"`
	// Reason says why resolution failed.
	Reason UnresolvedReason `json:"reason"`
}

// SoundnessReport makes the analysis's blind spots explicit: how many
// reflective sites were resolved into real call edges, and every site
// left opaque with the reason. An empty Unresolved list under
// reflection resolution means the leak report's "no leaks" claim covers
// the reflective surface too.
type SoundnessReport struct {
	// ResolvedSites counts reflective call sites fully resolved to a
	// constant target set (forName, getMethod, newInstance and invoke
	// sites all count individually).
	ResolvedSites int `json:"resolved_sites"`
	// Unresolved lists the opaque sites in (method, line, call) order.
	Unresolved []UnresolvedSite `json:"unresolved_sites"`
}

// Empty reports whether there is nothing to say: no reflective sites at
// all.
func (r *SoundnessReport) Empty() bool {
	return r == nil || (r.ResolvedSites == 0 && len(r.Unresolved) == 0)
}

// Site is one reflective call statement with what the pass resolved it
// to. Invoke sites carry real method targets; newInstance sites carry
// the class names to construct. Data-only sites (forName, getMethod)
// have neither — their effect lives in the facts.
type Site struct {
	// Stmt is the call statement and In its enclosing method.
	Stmt ir.Stmt
	In   *ir.Method
	// API is the dotted reflective API name.
	API string
	// Targets are the resolved invoke targets (invoke sites only).
	Targets []*ir.Method
	// Ctors are the resolved classes to instantiate (newInstance only).
	Ctors []string
	// Unresolved is non-nil when the site (also) contributes a soundness
	// entry.
	Unresolved *UnresolvedSite
}

// Result is the pass output: the classified reflective sites in
// deterministic order and the aggregated soundness report.
type Result struct {
	Sites  []Site
	Report *SoundnessReport
	// Truncated is set when the context expired mid-pass; the result is
	// partial and must not be used.
	Truncated bool
}

// Analyze runs constant propagation over every non-synthetic class of h
// and classifies each reflective call site. It never mutates the
// program; Materialize turns the resolved sites into callable bridge
// methods.
func Analyze(ctx context.Context, h ir.Hierarchy) *Result {
	res, _ := analyzeState(ctx, h)
	return res
}

// analyzeState is Analyze, also returning the fixpoint's state; the state is
// nil when the program has no reflective call.
func analyzeState(ctx context.Context, h ir.Hierarchy) (*Result, *analysis) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Unresolved starts non-nil so an all-resolved report serializes its
	// "unresolved_sites" as [] rather than null, the same discipline the
	// leak report follows.
	res := &Result{Report: &SoundnessReport{Unresolved: []UnresolvedSite{}}}
	// The dominant case is an app with no reflective surface at all; one
	// flat scan detects it and skips the interprocedural fixpoint, whose
	// facts nothing would consume. This keeps reflection resolution
	// effectively free on reflection-free programs.
	if !hasReflection(h) {
		return res, nil
	}
	a := newAnalysis(ctx, h)
	a.run()
	if a.truncated {
		res.Truncated = true
		return res, a
	}
	// One more stable pass per reflective method, collecting the
	// classification at each reflective site under its final entry state.
	// A statement can be visited more than once while the intraprocedural
	// worklist converges; the last visit sees the full joined state, so
	// later classifications overwrite earlier ones.
	for _, mi := range a.methods {
		if !mi.reflective {
			continue
		}
		byIndex := make([]Site, len(mi.m.Body()))
		a.analyzeMethod(mi, func(s ir.Stmt, call *ir.InvokeExpr, st state) {
			if site, ok := a.classify(mi.m, s, call, st); ok {
				byIndex[s.Index()] = site
			}
		})
		if a.truncated {
			res.Truncated = true
			return res, a
		}
		for _, site := range byIndex {
			if site.Stmt != nil {
				res.Sites = append(res.Sites, site)
			}
		}
	}
	for _, s := range res.Sites {
		if s.Unresolved != nil {
			res.Report.Unresolved = append(res.Report.Unresolved, *s.Unresolved)
		} else {
			res.Report.ResolvedSites++
		}
	}
	return res, a
}

// classified reports whether call is a reflective call the
// classification pass acts on. getName does not count: it produces a
// fact but never a site.
func classified(call *ir.InvokeExpr) bool {
	k, _ := reflectiveAPI(call)
	return k != apiNone && k != apiGetName
}

// hasReflection reports whether any analyzed body contains a classified
// reflective call, so a program whose only reflective API use is
// Class.getName still has nothing to classify. The shared framework
// classes have no bodies and are skipped.
func hasReflection(h ir.Hierarchy) bool {
	for _, c := range h.Classes() {
		if c.Synthetic || c.Interface || c.Shared() {
			continue
		}
		for _, m := range c.Methods() {
			for _, s := range m.Body() {
				if call := ir.CallOf(s); call != nil && classified(call) {
					return true
				}
			}
		}
	}
	return false
}

// classify evaluates one reflective call site under the final state,
// returning the Site record and whether the statement is reflective at
// all.
func (a *analysis) classify(m *ir.Method, s ir.Stmt, call *ir.InvokeExpr, st state) (Site, bool) {
	if !classified(call) {
		return Site{}, false
	}
	kind, name := reflectiveAPI(call)
	site := Site{Stmt: s, In: m, API: name}
	unresolved := func(r UnresolvedReason) (Site, bool) {
		site.Unresolved = &UnresolvedSite{
			Method: m.String(),
			Line:   s.Line(),
			Call:   name,
			Reason: r,
		}
		return site, true
	}
	switch kind {
	case apiLoadClass:
		return unresolved(DynamicLoading)
	case apiForName:
		f := a.operand(st, call.Args[0])
		if f.k != strs {
			return unresolved(NonConstantString)
		}
		for _, cn := range f.set {
			if a.h.Class(cn) == nil {
				return unresolved(UnknownClass)
			}
		}
		return site, true
	case apiGetMethod:
		cf := a.get(st, call.Base)
		nf := a.operand(st, call.Args[0])
		if cf.k != classes || nf.k != strs || len(cf.set)*len(nf.set) > maxSet {
			return unresolved(NonConstantString)
		}
		return site, true
	case apiNewInstance:
		cf := a.get(st, call.Base)
		if cf.k != classes {
			return unresolved(NonConstantString)
		}
		for _, cn := range cf.set {
			c := a.h.Class(cn)
			if c == nil || c.Interface {
				return unresolved(UnknownClass)
			}
			site.Ctors = append(site.Ctors, cn)
		}
		return site, true
	case apiInvoke:
		mf := a.get(st, call.Base)
		if mf.k != methods {
			return unresolved(NonConstantString)
		}
		nargs := len(call.Args) - 1
		for _, mk := range mf.meths {
			if a.h.Class(mk.class) == nil {
				return unresolved(UnknownClass)
			}
			t := a.h.ResolveMethod(mk.class, mk.name, nargs)
			if t == nil || t.Abstract() {
				return unresolved(UnknownClass)
			}
			site.Targets = append(site.Targets, t)
		}
		return site, true
	}
	return Site{}, false
}

// BridgesClass is the synthetic class holding the reflective bridge
// methods Materialize generates. Like the lifecycle dummy main it is
// marked Synthetic so component modeling and the constant-propagation
// scan itself skip it.
const BridgesClass = "reflection$Bridges"

// Materialize synthesizes one static bridge method per resolved
// (site, target) pair and returns the reflective call edges —
// site statement to bridge method — for the call-graph builders. A
// bridge's parameters positionally mirror the invoke site's arguments
// (receiver first, then the boxed argument list), so the taint solver's
// ordinary call-flow mapping carries facts through the
// invoke(Object, Object...) boundary with no solver changes.
//
// Bridge names are deterministic in site order, and an existing bridges
// class (a previous Analyze+Materialize of the same program) is reused
// method-by-method, mirroring the dummy-main reuse guard.
func (r *Result) Materialize(prog *ir.Program) (map[ir.Stmt][]*ir.Method, error) {
	type build struct {
		site ir.Stmt
		name string
		gen  func(cb *ir.ClassBuilder, name string)
	}
	var builds []build
	for i, s := range r.Sites {
		for j, t := range s.Targets {
			t := t
			builds = append(builds, build{
				site: s.Stmt,
				name: fmt.Sprintf("invoke$%d$%d", i, j),
				gen:  func(cb *ir.ClassBuilder, name string) { genInvokeBridge(cb, name, t) },
			})
		}
		for j, cn := range s.Ctors {
			cn := cn
			builds = append(builds, build{
				site: s.Stmt,
				name: fmt.Sprintf("new$%d$%d", i, j),
				gen:  func(cb *ir.ClassBuilder, name string) { genCtorBridge(cb, name, cn, prog) },
			})
		}
	}
	if len(builds) == 0 {
		return nil, nil
	}
	var cb *ir.ClassBuilder
	cls := prog.Class(BridgesClass)
	edges := make(map[ir.Stmt][]*ir.Method)
	for _, b := range builds {
		if cls != nil {
			if m := findBridge(cls, b.name); m != nil {
				edges[b.site] = append(edges[b.site], m)
				continue
			}
		}
		if cb == nil {
			if cls != nil {
				return nil, fmt.Errorf("constprop: %s exists but lacks bridge %s; the program changed since it was generated", BridgesClass, b.name)
			}
			cb = ir.NewClassIn(prog, BridgesClass, "")
			cb.Class().Synthetic = true
			cls = cb.Class()
		}
		b.gen(cb, b.name)
		if err := cb.Err(); err != nil {
			return nil, fmt.Errorf("constprop: %w", err)
		}
		edges[b.site] = append(edges[b.site], findBridge(cls, b.name))
	}
	if cb != nil {
		if err := prog.Link(); err != nil {
			return nil, fmt.Errorf("constprop: %w", err)
		}
	}
	return edges, nil
}

// findBridge locates a generated bridge by name (bridges are unique per
// name regardless of arity).
func findBridge(c *ir.Class, name string) *ir.Method {
	ms := c.MethodsNamed(name)
	if len(ms) == 0 {
		return nil
	}
	return ms[0]
}

// genInvokeBridge emits
//
//	static name(recv, a1..ak) { return recv.m(a1..ak) }
//
// for an instance target (a static call for a static target). The
// receiver parameter is typed with the target class so the inner call
// dispatches — and the CHA builders resolve it — exactly like a direct
// virtual call.
func genInvokeBridge(cb *ir.ClassBuilder, name string, t *ir.Method) {
	mb := cb.StaticMethod(name, t.Return)
	recvType := ir.Ref("java.lang.Object")
	if !t.Static {
		recvType = ir.Ref(t.Class.Name)
	}
	recv := mb.Param("recv", recvType)
	args := make([]ir.Value, len(t.Params))
	for i, p := range t.Params {
		args[i] = mb.Param(fmt.Sprintf("a%d", i), p.Type)
	}
	void := t.Return.Kind == ir.VoidType
	var ret *ir.Local
	if !void {
		ret = mb.Local("r")
		ret.Type = t.Return
		ret.Declared = true
	}
	switch {
	case t.Static && void:
		mb.SCall(t.Class.Name, t.Name, args...)
		mb.Return(nil)
	case t.Static:
		mb.SCallTo(ret, t.Class.Name, t.Name, args...)
		mb.Return(ret)
	case void:
		mb.VCall(recv, t.Name, args...)
		mb.Return(nil)
	default:
		mb.VCallTo(ret, recv, t.Name, args...)
		mb.Return(ret)
	}
	mb.Done()
}

// genCtorBridge emits
//
//	static name(): C { x = new C; x.<init>(); return x }
//
// for a newInstance target class.
func genCtorBridge(cb *ir.ClassBuilder, name, class string, prog *ir.Program) {
	mb := cb.StaticMethod(name, ir.Ref(class))
	x := mb.Local("x")
	x.Type = ir.Ref(class)
	x.Declared = true
	mb.New(x, class)
	if prog.ResolveMethod(class, "init", 0) != nil {
		mb.SpecialCall(x, class, "init")
	}
	mb.Return(x)
	mb.Done()
}
