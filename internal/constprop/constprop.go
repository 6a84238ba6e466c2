// Package constprop is a flow-sensitive, interprocedural constant-string
// propagation pass in the style of internal/irlint's analyzer framework,
// but producing facts instead of diagnostics. It tracks which string,
// Class and java.lang.reflect.Method values a local can hold when every
// contributing write is a compile-time constant: string literals, string
// concatenation (the + operator and String.concat), StringBuilder /
// StringBuffer chains (the PR 9 carrier insight applied to constants),
// fields with a single constant writer, and constants flowing through
// call arguments and returns.
//
// Its sole consumer today is reflection resolution: a
// Class.forName("C").getMethod("m").invoke(x, a) chain whose receiver
// and name strings resolve to a bounded constant set becomes a set of
// ordinary call-graph edges (via synthesized bridge methods, see
// Materialize in reflect.go), so the taint solver tracks flows through
// reflection with
// no solver changes. Every reflective site the pass cannot resolve is
// recorded in a SoundnessReport with the reason — non-constant string,
// unknown class, or dynamic loading — so a clean analysis result
// distinguishes "no leaks" from "no leaks among what I could see".
//
// The lattice is deliberately small: per local, either "unknown" (top),
// "no constant observed" (bottom), or a bounded set (maxSet) of strings,
// class names, (class, method) pairs, or StringBuilder contents. All
// imprecision degrades toward top, which downstream turns into an
// honestly reported unresolved site — never a missing report entry.
package constprop

import (
	"context"
	"sort"

	"flowdroid/internal/callgraph"
	"flowdroid/internal/ir"
)

// maxSet bounds every constant set the lattice tracks; a join that would
// exceed it goes to top (non-constant). Small keeps the fixpoint cheap
// and the resolved edge fan-out bounded.
const maxSet = 8

type kind uint8

const (
	bot     kind = iota // no constant observed yet (unassigned path)
	strs                // a bounded set of string constants
	classes             // a bounded set of class names (java.lang.Class values)
	methods             // a bounded set of (class, method-name) pairs
	builder             // StringBuilder/StringBuffer contents, tracked per allocation site
	top                 // not a constant
)

// methodKey is one (class, method-name) element of a methods fact — the
// value a getMethod call produces.
type methodKey struct {
	class, name string
}

// fact is the lattice value of one local at one program point.
type fact struct {
	k     kind
	set   []string    // sorted; strs, classes, and builder contents
	meths []methodKey // sorted; methods
	// origin is the allocation site a builder fact tracks; appends update
	// every local sharing the origin, and joining two different origins
	// degrades to top.
	origin ir.Stmt
}

var topFact = fact{k: top}

func strsOf(ss ...string) fact {
	out := append([]string(nil), ss...)
	sort.Strings(out)
	return fact{k: strs, set: dedup(out)}
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

func unionStrs(a, b []string) ([]string, bool) {
	out := make([]string, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Strings(out)
	out = dedup(out)
	if len(out) > maxSet {
		return nil, false
	}
	return out, true
}

// join is the lattice join. Facts of different kinds (or builders of
// different allocation sites) meet at top.
func join(a, b fact) fact {
	switch {
	case a.k == bot:
		return b
	case b.k == bot:
		return a
	case a.k == top || b.k == top || a.k != b.k:
		return topFact
	}
	switch a.k {
	case strs, classes:
		u, ok := unionStrs(a.set, b.set)
		if !ok {
			return topFact
		}
		return fact{k: a.k, set: u}
	case builder:
		if a.origin != b.origin {
			return topFact
		}
		u, ok := unionStrs(a.set, b.set)
		if !ok {
			return topFact
		}
		return fact{k: builder, set: u, origin: a.origin}
	case methods:
		out := make([]methodKey, 0, len(a.meths)+len(b.meths))
		out = append(out, a.meths...)
		out = append(out, b.meths...)
		sort.Slice(out, func(i, j int) bool {
			if out[i].class != out[j].class {
				return out[i].class < out[j].class
			}
			return out[i].name < out[j].name
		})
		ded := out[:0]
		for i, m := range out {
			if i == 0 || m != out[i-1] {
				ded = append(ded, m)
			}
		}
		if len(ded) > maxSet {
			return topFact
		}
		return fact{k: methods, meths: ded}
	}
	return topFact
}

func equalFacts(a, b fact) bool {
	if a.k != b.k || a.origin != b.origin ||
		len(a.set) != len(b.set) || len(a.meths) != len(b.meths) {
		return false
	}
	for i := range a.set {
		if a.set[i] != b.set[i] {
			return false
		}
	}
	for i := range a.meths {
		if a.meths[i] != b.meths[i] {
			return false
		}
	}
	return true
}

// concat is the transfer of string concatenation: the cross product of
// two constant sets, bounded by maxSet. It is monotone: a bot operand
// (no value observed yet) yields bot, never top, so an early fixpoint
// round cannot poison a later one.
func concat(a, b fact) fact {
	if a.k == bot || b.k == bot {
		return fact{}
	}
	if a.k != strs || b.k != strs {
		return topFact
	}
	if len(a.set)*len(b.set) > maxSet {
		return topFact
	}
	out := make([]string, 0, len(a.set)*len(b.set))
	for _, x := range a.set {
		for _, y := range b.set {
			out = append(out, x+y)
		}
	}
	sort.Strings(out)
	return fact{k: strs, set: dedup(out)}
}

// state is the per-program-point environment of one method: the fact of
// each local, indexed by the local's slot (see analysis.slots). The zero
// fact is bot.
type state []fact

// raise joins f into *dst, reporting whether *dst rose. Joining bot, or
// into top, or a fact into itself never changes *dst, and skipping the
// join there avoids building a set that equals the old one.
func raise(dst *fact, f fact) bool {
	if f.k == bot || dst.k == top || equalFacts(*dst, f) {
		return false
	}
	j := join(*dst, f)
	if equalFacts(*dst, j) {
		return false
	}
	*dst = j
	return true
}

func (st state) joinInto(other state) bool {
	changed := false
	for i, f := range other {
		if raise(&st[i], f) {
			changed = true
		}
	}
	return changed
}

// method is one analyzed method's share of the interprocedural fixpoint.
type method struct {
	m *ir.Method
	// nlocals is the length of m's states; analysis.slots numbers m's
	// locals 0..nlocals-1.
	nlocals int

	// external pins the parameters top: framework callbacks (overriding a
	// bodyless declaration), static initializers, and methods with no
	// observed call site (callable from outside the analyzed code).
	external bool
	// reflective marks a body with a call the classification pass acts
	// on; no other method can contribute a Site.
	reflective bool
	// callers are the analyzed methods with a call site resolving to m,
	// each listed once.
	callers []*method

	// paramIn[i] joins the i-th argument facts over every observed call
	// site of m; retOut joins m's return-value facts.
	paramIn []fact
	retOut  fact

	// dirty is set when paramIn or a callee's retOut rose since m was
	// last analyzed. Those, the fixed field facts and external are m's
	// only inputs, so analyzing a clean method again would repeat joins
	// that already happened.
	dirty bool
	// analyses counts the fixpoint's analyses of m.
	analyses int
}

// analysis holds the interprocedural fixpoint state.
type analysis struct {
	ctx context.Context
	h   ir.Hierarchy
	res *callgraph.Resolver

	// methods are the analyzed (app, non-synthetic, bodied) methods in
	// deterministic (class name, method name, arity) order; byIR maps each
	// to its entry.
	methods []*method
	byIR    map[*ir.Method]*method

	// slots numbers each analyzed method's locals densely, so a state is
	// a slice. The numbering lives here rather than on ir.Local because
	// later passes (lifecycle, materialization) add locals. cur is the
	// method analyzeMethod is running; slot resolves locals against it.
	slots map[*ir.Local]slotRef
	cur   *method

	// fieldFacts holds the constant for fields with exactly one writer
	// program-wide whose written value is a string literal; every other
	// written field maps to top.
	fieldFacts map[*ir.Field]fact

	// targets memoizes the resolver per call expression: transferCall
	// re-evaluates every call site on every worklist visit, and the
	// targets never change mid-pass.
	targets map[*ir.InvokeExpr][]*ir.Method

	// maxRounds bounds run() (see newAnalysis); rounds counts the rounds
	// run.
	maxRounds, rounds int

	// Buffers analyzeMethod reuses from one method to the next: the
	// per-statement in-states (carved from arena on first reach), the
	// worklist, and the scratch state each visit transfers on.
	in              []state
	reached, inWork []bool
	arena           []fact
	work            []int
	scratch         state

	truncated bool
}

func newAnalysis(ctx context.Context, h ir.Hierarchy) *analysis {
	a := &analysis{
		ctx:        ctx,
		h:          h,
		res:        callgraph.ResolverFor(h),
		byIR:       make(map[*ir.Method]*method),
		slots:      make(map[*ir.Local]slotRef),
		fieldFacts: make(map[*ir.Field]fact),
		targets:    make(map[*ir.InvokeExpr][]*ir.Method),
	}
	interFacts := 0
	for _, c := range h.Classes() {
		// Shared classes are the frozen framework stubs, which have no
		// bodies.
		if c.Synthetic || c.Interface || c.Shared() {
			continue
		}
		for _, m := range c.Methods() {
			if m.Abstract() {
				continue
			}
			mi := &method{m: m, paramIn: make([]fact, len(m.Params))}
			mi.nlocals = a.number(mi)
			a.methods = append(a.methods, mi)
			a.byIR[m] = mi
			interFacts += len(m.Params) + 1
		}
	}
	// Every round but the last raises some paramIn or retOut fact, and a
	// fact climbs a chain of maxSet+2 values (bot, one to maxSet
	// constants, top), so it rises fewer than maxSet+2 times.
	a.maxRounds = (maxSet+2)*interFacts + 1
	a.prescan()
	return a
}

// slotRef is a numbered local's method and its index in that method's
// states.
type slotRef struct {
	owner *method
	i     int32
}

// number gives mi's locals, receiver and parameters their slots and
// returns how many there are. A local some earlier method already owns
// stays with that method.
func (a *analysis) number(mi *method) int {
	n := 0
	add := func(l *ir.Local) {
		if _, ok := a.slots[l]; l != nil && !ok {
			a.slots[l] = slotRef{owner: mi, i: int32(n)}
			n++
		}
	}
	m := mi.m
	for _, l := range m.Locals() {
		add(l)
	}
	add(m.This)
	for _, p := range m.Params {
		add(p)
	}
	return n
}

// slot is l's index in the current method's states, or -1 if that
// method does not own l. The parser never builds such a local, but
// programmatic IR can reference one that is foreign to the method's
// table or shared with another method (irlint's duplicates.local).
func (a *analysis) slot(l *ir.Local) int {
	if r, ok := a.slots[l]; ok && r.owner == a.cur {
		return int(r.i)
	}
	return -1
}

// get is l's fact under st; a local the method does not own is top.
func (a *analysis) get(st state, l *ir.Local) fact {
	if i := a.slot(l); i >= 0 {
		return st[i]
	}
	return topFact
}

// set binds l to f in st. A local the method does not own keeps top, and
// a builder stored there escapes the tracked state, so its aliases drop
// to top as on a heap write.
func (a *analysis) set(st state, l *ir.Local, f fact) {
	if i := a.slot(l); i >= 0 {
		st[i] = f
	} else {
		degradeBuilder(st, f)
	}
}

// prescan classifies externally-callable and reflective methods, records
// each method's callers, and collects the single-constant-writer field
// facts in one walk over every body.
func (a *analysis) prescan() {
	type fieldWrite struct {
		count int
		f     fact
	}
	writes := make(map[*ir.Field]*fieldWrite)
	for _, mi := range a.methods {
		for _, s := range mi.m.Body() {
			if call := ir.CallOf(s); call != nil {
				if classified(call) {
					mi.reflective = true
				}
				for _, t := range a.targetsOf(call) {
					ti := a.byIR[t]
					if ti == nil {
						continue
					}
					// mi's calls are walked together, so a repeat is last.
					if n := len(ti.callers); n == 0 || ti.callers[n-1] != mi {
						ti.callers = append(ti.callers, mi)
					}
				}
			}
			as, ok := s.(*ir.AssignStmt)
			if !ok {
				continue
			}
			var fld *ir.Field
			switch lhs := as.LHS.(type) {
			case *ir.FieldRef:
				fld = lhs.Field
			case *ir.StaticFieldRef:
				fld = lhs.Field
			}
			if fld == nil {
				continue
			}
			w := writes[fld]
			if w == nil {
				w = &fieldWrite{}
				writes[fld] = w
			}
			w.count++
			if c, ok := as.RHS.(*ir.Const); ok && c.Kind == ir.StringConst {
				w.f = strsOf(c.Str)
			} else {
				w.f = topFact
			}
		}
	}
	for fld, w := range writes {
		if w.count == 1 && w.f.k == strs {
			a.fieldFacts[fld] = w.f
		} else {
			a.fieldFacts[fld] = topFact
		}
	}
	for _, mi := range a.methods {
		m := mi.m
		if a.overridesExternal(m) || m.Name == "clinit" || len(mi.callers) == 0 {
			mi.external = true
		}
	}
}

// overridesExternal reports whether m overrides a declaration visible
// outside the analyzed code — a bodyless (framework stub or interface)
// method reachable on its superclass chain or interfaces. Such methods
// can be invoked by the framework with arbitrary arguments, so their
// parameters are never constant.
func (a *analysis) overridesExternal(m *ir.Method) bool {
	if d := a.h.ResolveMethod(m.Class.Super, m.Name, len(m.Params)); d != nil {
		return true
	}
	for _, in := range m.Class.Interfaces {
		if d := a.h.ResolveMethod(in, m.Name, len(m.Params)); d != nil {
			return true
		}
	}
	return false
}

// entryState fills st with the environment at mi's start point.
func (a *analysis) entryState(mi *method, st state) {
	clear(st)
	m := mi.m
	if m.This != nil {
		a.set(st, m.This, topFact)
	}
	for i, p := range m.Params {
		if mi.external {
			a.set(st, p, topFact)
		} else {
			// Starts at bot before any caller was analyzed and only ever
			// rises — the join over observed call sites is monotone.
			a.set(st, p, mi.paramIn[i])
		}
	}
}

// run drives the interprocedural fixpoint: methods are analyzed
// intraprocedurally in order, argument facts observed at call sites feed
// the callees' parameter environments and return facts feed call
// results, until a full round changes nothing. Round 0 analyzes every
// method; later rounds only the dirty ones, which are exactly those whose
// analysis could change a fact. If the round bound is hit while facts
// still change (a transfer-function bug), the result is truncated.
func (a *analysis) run() {
	for _, mi := range a.methods {
		mi.dirty = true
	}
	for changed := true; changed; {
		if a.rounds == a.maxRounds {
			a.truncated = true
			return
		}
		a.rounds++
		changed = false
		for _, mi := range a.methods {
			if !mi.dirty {
				continue
			}
			if a.ctx.Err() != nil {
				a.truncated = true
				return
			}
			mi.dirty = false
			mi.analyses++
			if a.analyzeMethod(mi, nil) {
				changed = true
			}
		}
	}
}

// succs returns the successor indices of body[i], -1 standing for none.
// It mirrors cfg.MethodCFG's edge rules without building statement
// slices.
func succs(body []ir.Stmt, i int) (int, int) {
	switch s := body[i].(type) {
	case *ir.GotoStmt:
		return s.TargetIndex, -1
	case *ir.IfStmt:
		if s.TargetIndex != i+1 {
			return i + 1, s.TargetIndex
		}
	case *ir.ReturnStmt:
		return -1, -1
	}
	return i + 1, -1
}

// analyzeMethod runs the flow-sensitive intraprocedural worklist over
// mi's body under the current interprocedural environment, returning
// whether any callee's paramIn or mi's retOut rose. When visit is
// non-nil it is invoked at every call statement with the state holding
// immediately before the call (the classification pass of reflect.go).
func (a *analysis) analyzeMethod(mi *method, visit func(s ir.Stmt, call *ir.InvokeExpr, st state)) bool {
	body := mi.m.Body()
	if len(body) == 0 {
		return false
	}
	a.cur = mi
	n := mi.nlocals
	if cap(a.in) < len(body) {
		a.in = make([]state, len(body))
		a.reached = make([]bool, len(body))
		a.inWork = make([]bool, len(body))
	}
	if cap(a.arena) < len(body)*n {
		a.arena = make([]fact, len(body)*n)
	}
	if cap(a.scratch) < n {
		a.scratch = make(state, n)
	}
	in, reached, inWork := a.in[:len(body)], a.reached[:len(body)], a.inWork[:len(body)]
	clear(reached)
	clear(inWork)
	st := a.scratch[:n]
	// in[i] is carved from the arena the first time statement i is
	// reached, and reached (not a nil check) records that, because a
	// method without locals has empty states.
	frame := func(i int) state { return state(a.arena[i*n : (i+1)*n : (i+1)*n]) }

	in[0] = frame(0)
	reached[0] = true
	a.entryState(mi, in[0])
	changed := false
	work := append(a.work[:0], 0)
	inWork[0] = true
	steps := 0
	for len(work) > 0 {
		steps++
		if steps%1024 == 0 && a.ctx.Err() != nil {
			a.truncated = true
			break
		}
		i := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[i] = false
		copy(st, in[i])
		if call := ir.CallOf(body[i]); call != nil && visit != nil {
			visit(body[i], call, st)
		}
		if a.transfer(mi, body[i], st) {
			changed = true
		}
		j1, j2 := succs(body, i)
		for _, j := range [2]int{j1, j2} {
			if j < 0 || j >= len(body) {
				continue
			}
			if !reached[j] {
				reached[j] = true
				in[j] = frame(j)
				copy(in[j], st)
			} else if !in[j].joinInto(st) {
				continue
			}
			if !inWork[j] {
				inWork[j] = true
				work = append(work, j)
			}
		}
	}
	a.work = work
	return changed
}

// operand evaluates a call argument or binop operand under st.
func (a *analysis) operand(st state, v ir.Value) fact {
	switch v := v.(type) {
	case *ir.Local:
		return a.get(st, v)
	case *ir.Const:
		if v.Kind == ir.StringConst {
			return strsOf(v.Str)
		}
		return fact{} // null / int: no string constant, but no poison either
	}
	return topFact
}

// transfer applies one statement to st in place, reporting whether it
// raised any interprocedural fact (callee params, own return).
func (a *analysis) transfer(mi *method, s ir.Stmt, st state) bool {
	switch stm := s.(type) {
	case *ir.ReturnStmt:
		if stm.Value == nil || !raise(&mi.retOut, a.operand(st, stm.Value)) {
			return false
		}
		for _, c := range mi.callers {
			c.dirty = true
		}
		return true
	case *ir.InvokeStmt:
		return a.transferCall(s, stm.Call, nil, st)
	case *ir.AssignStmt:
		lhs, isLocal := stm.LHS.(*ir.Local)
		if call, ok := stm.RHS.(*ir.InvokeExpr); ok {
			var dst *ir.Local
			if isLocal {
				dst = lhs
			}
			return a.transferCall(s, call, dst, st)
		}
		if !isLocal {
			// Writing a tracked builder into the heap lets unseen code
			// mutate it; drop every alias of its origin to stay sound.
			if src, ok := stm.RHS.(*ir.Local); ok {
				degradeBuilder(st, a.get(st, src))
			}
			return false
		}
		var f fact
		switch rhs := stm.RHS.(type) {
		case *ir.Const:
			if rhs.Kind == ir.StringConst {
				f = strsOf(rhs.Str)
			} else {
				f = topFact
			}
		case *ir.Local:
			f = a.get(st, rhs)
		case *ir.Cast:
			if x, ok := rhs.X.(*ir.Local); ok {
				f = a.get(st, x)
			} else {
				f = topFact
			}
		case *ir.Binop:
			if rhs.Op == "+" {
				f = concat(a.operand(st, rhs.L), a.operand(st, rhs.R))
			} else {
				f = topFact
			}
		case *ir.New:
			if rhs.Type.Name == "java.lang.StringBuilder" || rhs.Type.Name == "java.lang.StringBuffer" {
				f = fact{k: builder, set: emptyContents, origin: s}
			} else {
				f = topFact
			}
		case *ir.FieldRef:
			f = a.fieldFact(rhs.Field)
		case *ir.StaticFieldRef:
			f = a.fieldFact(rhs.Field)
		default:
			f = topFact
		}
		a.set(st, lhs, f)
	}
	return false
}

// emptyContents is a fresh builder's contents. Facts never mutate their
// sets, so every allocation site shares it.
var emptyContents = []string{""}

func (a *analysis) targetsOf(call *ir.InvokeExpr) []*ir.Method {
	if t, ok := a.targets[call]; ok {
		return t
	}
	t := a.res.TargetsOf(call)
	a.targets[call] = t
	return t
}

func (a *analysis) fieldFact(f *ir.Field) fact {
	if f == nil {
		return topFact
	}
	if ff, ok := a.fieldFacts[f]; ok {
		return ff
	}
	// Never-written field: reads observe the default value, not a
	// constant the analysis tracks.
	return topFact
}

// degradeBuilder drops every alias of f's builder origin to top.
func degradeBuilder(st state, f fact) {
	if f.k != builder {
		return
	}
	for i, lf := range st {
		if lf.k == builder && lf.origin == f.origin {
			st[i] = topFact
		}
	}
}

// setBuilder updates every alias of origin to the new contents.
func setBuilder(st state, origin ir.Stmt, contents fact) {
	nf := topFact
	if contents.k == strs {
		nf = fact{k: builder, set: contents.set, origin: origin}
	}
	for i, lf := range st {
		if lf.k == builder && lf.origin == origin {
			st[i] = nf
		}
	}
}

// transferCall models one invocation: the string/Class/Method APIs get
// precise transfer functions; everything else propagates argument facts
// to resolvable callees and reads back their joined return fact. It
// reports whether a callee's paramIn rose, marking that callee dirty.
func (a *analysis) transferCall(s ir.Stmt, call *ir.InvokeExpr, result *ir.Local, st state) bool {
	setResult := func(f fact) {
		if result != nil {
			a.set(st, result, f)
		}
	}

	// StringBuilder / StringBuffer chains, keyed by the receiver holding
	// a builder fact (not the declared type — a builder that escaped is
	// already top and falls through to the generic path).
	if call.Base != nil {
		if bf := a.get(st, call.Base); bf.k == builder {
			switch {
			case call.Ref.Name == "append" && len(call.Args) == 1:
				contents := concat(fact{k: strs, set: bf.set}, a.operand(st, call.Args[0]))
				setBuilder(st, bf.origin, contents)
				setResult(a.get(st, call.Base))
			case call.Ref.Name == "toString" && len(call.Args) == 0:
				setResult(fact{k: strs, set: bf.set})
			case call.Ref.Name == "init":
				// Constructor: contents stay the allocation's "".
				setResult(fact{})
			default:
				// insert, reverse, deleteCharAt, … mutate the contents in
				// ways the pass does not model.
				degradeBuilder(st, bf)
				setResult(topFact)
			}
			return false
		}
	}

	// Reflection data APIs. Bot inputs (no value observed yet on this
	// fixpoint round) yield bot, keeping the transfer monotone.
	switch api, _ := reflectiveAPI(call); api {
	case apiForName:
		switch f := a.operand(st, call.Args[0]); f.k {
		case strs:
			setResult(fact{k: classes, set: f.set})
		case bot:
			setResult(fact{})
		default:
			setResult(topFact)
		}
		return false
	case apiGetMethod:
		cf := a.get(st, call.Base)
		nf := a.operand(st, call.Args[0])
		switch {
		case cf.k == classes && nf.k == strs && len(cf.set)*len(nf.set) <= maxSet:
			pairs := make([]methodKey, 0, len(cf.set)*len(nf.set))
			for _, c := range cf.set {
				for _, n := range nf.set {
					pairs = append(pairs, methodKey{class: c, name: n})
				}
			}
			setResult(fact{k: methods, meths: pairs})
		case cf.k == bot || nf.k == bot:
			setResult(fact{})
		default:
			setResult(topFact)
		}
		return false
	case apiGetName:
		switch cf := a.get(st, call.Base); cf.k {
		case classes:
			setResult(fact{k: strs, set: cf.set})
		case bot:
			setResult(fact{})
		default:
			setResult(topFact)
		}
		return false
	case apiNewInstance, apiInvoke, apiLoadClass:
		// Edges (or soundness entries) are handled by the classification
		// pass; the produced value itself is not a tracked constant.
		setResult(topFact)
		return false
	}

	// Generic call: push argument facts into resolvable callees, pull
	// the joined return fact back. A builder passed to unmodeled code
	// escapes.
	for _, arg := range call.Args {
		if l, ok := arg.(*ir.Local); ok {
			degradeBuilder(st, a.get(st, l))
		}
	}
	changed := false
	targets := a.targetsOf(call)
	allKnown := len(targets) > 0
	ret := fact{}
	for _, t := range targets {
		ti := a.byIR[t]
		if ti == nil {
			allKnown = false
			continue
		}
		rose := false
		for i := range ti.paramIn {
			af := topFact
			if i < len(call.Args) {
				af = a.operand(st, call.Args[i])
			}
			if raise(&ti.paramIn[i], af) {
				rose = true
			}
		}
		if rose {
			ti.dirty = true
			changed = true
		}
		ret = join(ret, ti.retOut)
	}
	if allKnown {
		setResult(ret)
	} else {
		setResult(topFact)
	}
	return changed
}
