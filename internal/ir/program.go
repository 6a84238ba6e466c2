package ir

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// Program is a closed world of classes: the app's own classes plus the
// framework model they link against. All name resolution (fields, methods,
// subtyping) happens against a Program.
type Program struct {
	classes map[string]*Class
	// own lists, in name order, the classes this program added on top of
	// base: every class when base is nil.
	own    []*Class
	base   *Program
	frozen bool
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{classes: make(map[string]*Class)}
}

// Freeze marks every class of p as shared, so that forks of p can use
// them read-only: AddField and AddMethod fail on a shared class, and Link
// leaves shared classes alone. It also fixes p's class set: AddClass
// fails on a frozen program, so an index built once over its classes
// stays exact for every fork. Link p before freezing it. Freeze must run
// before p is forked or published to other goroutines; it is not safe to
// call concurrently with any use of p.
func (p *Program) Freeze() {
	for _, c := range p.classes {
		c.shared = true
	}
	p.frozen = true
}

// Fork returns a new program that starts with p's classes. The class map
// is copied, so a class added to the fork is invisible to p and to every
// other fork; the classes themselves are the same pointers, so p should
// be frozen first. The fork's Base is p when p is frozen, and p's own
// Base otherwise.
func (p *Program) Fork() *Program {
	f := &Program{classes: maps.Clone(p.classes), base: p}
	if !p.frozen {
		f.base, f.own = p.base, slices.Clone(p.own)
	}
	return f
}

// Base returns the frozen program p was forked from (through unfrozen
// forks, the nearest frozen one), or nil. Every class of the base is a
// class of p, under the same name and pointer.
func (p *Program) Base() *Program { return p.base }

// OwnClasses returns, in name order, the classes of p that its Base does
// not have: every class when p has no base. The slice is p's own: callers
// must not mutate it. A later AddClass leaves it unchanged.
func (p *Program) OwnClasses() []*Class { return p.own }

// AddClass registers a class; it returns an error on duplicate names or
// if p is frozen.
func (p *Program) AddClass(c *Class) error {
	if p.frozen {
		return fmt.Errorf("cannot add class %s to a frozen program", c.Name)
	}
	if _, dup := p.classes[c.Name]; dup {
		return fmt.Errorf("duplicate class %s", c.Name)
	}
	p.classes[c.Name] = c
	i := sort.Search(len(p.own), func(i int) bool { return p.own[i].Name >= c.Name })
	p.own = insertAt(p.own, i, c)
	return nil
}

// Class returns the named class, or nil.
func (p *Program) Class(name string) *Class { return p.classes[name] }

// Classes returns all classes in name order.
func (p *Program) Classes() []*Class {
	out := make([]*Class, 0, len(p.classes))
	for _, c := range p.classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Methods returns every method of every class, in deterministic order.
func (p *Program) Methods() []*Method {
	var out []*Method
	for _, c := range p.Classes() {
		out = append(out, c.Methods()...)
	}
	return out
}

// SubtypeOf reports whether sub is the same as, a subclass of, or an
// implementor of super, following superclass and interface edges. Cyclic
// hierarchies (which only malformed inputs can produce) are tolerated.
func (p *Program) SubtypeOf(sub, super string) bool {
	return p.subtypeOf(sub, super, nil)
}

func (p *Program) subtypeOf(sub, super string, seen map[string]bool) bool {
	if sub == super {
		return true
	}
	if seen[sub] {
		return false
	}
	c := p.classes[sub]
	if c == nil {
		return false
	}
	if seen == nil {
		seen = make(map[string]bool)
	}
	seen[sub] = true
	if c.Super != "" && p.subtypeOf(c.Super, super, seen) {
		return true
	}
	for _, in := range c.Interfaces {
		if p.subtypeOf(in, super, seen) {
			return true
		}
	}
	return false
}

// SubtypesOf returns the names of every class that is a subtype of the
// named class or interface (including itself if declared), in name order.
func (p *Program) SubtypesOf(name string) []string {
	var out []string
	for cn := range p.classes {
		if p.SubtypeOf(cn, name) {
			out = append(out, cn)
		}
	}
	sort.Strings(out)
	return out
}

// ResolveMethod finds the method (name, nargs) starting at class and
// walking up the superclass chain, then the transitive interfaces. It
// returns nil if no declaration is found.
func (p *Program) ResolveMethod(class, name string, nargs int) *Method {
	for cn := class; cn != ""; {
		c := p.classes[cn]
		if c == nil {
			return nil
		}
		if m := c.Method(name, nargs); m != nil {
			return m
		}
		cn = c.Super
	}
	// Fall back to interface declarations (for callback interfaces).
	if c := p.classes[class]; c != nil {
		for _, in := range c.Interfaces {
			if m := p.ResolveMethod(in, name, nargs); m != nil {
				return m
			}
		}
	}
	return nil
}

// ResolveField finds the field by name starting at class and walking up
// the superclass chain. It returns nil if no declaration is found.
func (p *Program) ResolveField(class, name string) *Field {
	for cn := class; cn != ""; {
		c := p.classes[cn]
		if c == nil {
			return nil
		}
		if f := c.Field(name); f != nil {
			return f
		}
		cn = c.Super
	}
	return nil
}

// Link prepares the program for analysis: it finalizes every method body,
// runs local type inference to a fixed point, and resolves all field
// references to their declarations. It must be called after all classes
// have been added and before any analysis runs. Linking is idempotent.
//
// Shared classes (see Freeze) are skipped. They were linked before they
// were frozen, and a shared class must not depend on classes added to a
// fork (the framework stubs are bodyless), so linking them again would
// change nothing. Lookups still see them.
func (p *Program) Link() error {
	var methods []*Method
	for _, c := range p.unsharedClasses() {
		methods = append(methods, c.Methods()...)
	}
	for _, m := range methods {
		if m.This != nil && m.This.Type.IsUnknown() {
			m.This.Type = Ref(m.Class.Name)
		}
		if err := m.Finalize(); err != nil {
			return err
		}
	}
	// Local type inference: propagate types through copies, allocations,
	// casts, loads and calls until nothing changes. The inference is a
	// best effort; remaining unknown types degrade dispatch precision but
	// never correctness (callers fall back to name-based CHA).
	for changed := true; changed; {
		changed = false
		for _, m := range methods {
			if p.inferMethod(m) {
				changed = true
			}
		}
	}
	// Field resolution.
	for _, m := range methods {
		if err := p.resolveFields(m); err != nil {
			return err
		}
	}
	return nil
}

// unsharedClasses returns the classes Link processes, in name order.
func (p *Program) unsharedClasses() []*Class {
	var out []*Class
	for _, c := range p.classes {
		if !c.shared {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (p *Program) inferMethod(m *Method) bool {
	changed := false
	set := func(l *Local, t Type) {
		if l.Type.IsUnknown() && !t.IsUnknown() && t.Kind != VoidType {
			l.Type = t
			changed = true
		}
	}
	for _, s := range m.Body() {
		a, ok := s.(*AssignStmt)
		if !ok {
			continue
		}
		lhs, ok := a.LHS.(*Local)
		if !ok {
			continue
		}
		switch rhs := a.RHS.(type) {
		case *Local:
			set(lhs, rhs.Type)
		case *New:
			set(lhs, rhs.Type)
		case *NewArray:
			set(lhs, ArrayOf(rhs.Elem))
		case *Cast:
			set(lhs, rhs.To)
		case *Const:
			switch rhs.Kind {
			case IntConst, ResConst:
				set(lhs, Int)
			case StringConst:
				set(lhs, Ref("java.lang.String"))
			}
		case *Binop:
			set(lhs, binopType(rhs))
		case *FieldRef:
			if t := p.fieldRefType(rhs); !t.IsUnknown() {
				set(lhs, t)
			}
		case *StaticFieldRef:
			if f := p.ResolveField(rhs.Class, rhs.Name); f != nil {
				set(lhs, f.Type)
			}
		case *ArrayRef:
			if rhs.Base.Type.IsArray() {
				set(lhs, *rhs.Base.Type.Elem)
			}
		case *InvokeExpr:
			if t := p.returnTypeOf(rhs); !t.IsUnknown() {
				set(lhs, t)
			}
		}
	}
	return changed
}

func binopType(b *Binop) Type {
	str := Ref("java.lang.String")
	if l, ok := b.L.(*Local); ok && l.Type.Equal(str) {
		return str
	}
	if r, ok := b.R.(*Local); ok && r.Type.Equal(str) {
		return str
	}
	if c, ok := b.L.(*Const); ok && c.Kind == StringConst {
		return str
	}
	if c, ok := b.R.(*Const); ok && c.Kind == StringConst {
		return str
	}
	return Int
}

func (p *Program) fieldRefType(r *FieldRef) Type {
	if r.Field != nil {
		return r.Field.Type
	}
	if r.Base.Type.IsRef() {
		if f := p.ResolveField(r.Base.Type.Name, r.Name); f != nil {
			return f.Type
		}
	}
	return Unknown
}

// returnTypeOf finds the declared return type of an invocation's static
// target, if resolvable.
func (p *Program) returnTypeOf(e *InvokeExpr) Type {
	cls := e.Ref.Class
	if e.Kind == VirtualInvoke && e.Base != nil && e.Base.Type.IsRef() {
		cls = e.Base.Type.Name
	}
	if m := p.ResolveMethod(cls, e.Ref.Name, e.Ref.NArgs); m != nil {
		return m.Return
	}
	// Name-based fallback: if exactly one class declares the method,
	// use its return type.
	var found *Method
	for _, c := range p.classes {
		if m := c.Method(e.Ref.Name, e.Ref.NArgs); m != nil {
			if found != nil && !found.Return.Equal(m.Return) {
				return Unknown
			}
			found = m
		}
	}
	if found != nil {
		return found.Return
	}
	return Unknown
}

func (p *Program) resolveFields(m *Method) error {
	resolveRef := func(r *FieldRef) error {
		if r.Field != nil {
			return nil
		}
		if r.Base.Type.IsRef() {
			if f := p.ResolveField(r.Base.Type.Name, r.Name); f != nil {
				r.Field = f
				return nil
			}
		}
		// Unique-name fallback across the whole program.
		var found *Field
		for _, c := range p.classes {
			if f := c.Field(r.Name); f != nil {
				if found != nil {
					return fmt.Errorf("%s: ambiguous field %q on %s (declared in both %s and %s)",
						m, r.Name, r.Base.Name, found.Class.Name, c.Name)
				}
				found = f
			}
		}
		if found == nil {
			return fmt.Errorf("%s: cannot resolve field %q on %s", m, r.Name, r.Base.Name)
		}
		r.Field = found
		return nil
	}
	resolveStatic := func(r *StaticFieldRef) error {
		if r.Field != nil {
			return nil
		}
		f := p.ResolveField(r.Class, r.Name)
		if f == nil {
			return fmt.Errorf("%s: cannot resolve static field %s.%s", m, r.Class, r.Name)
		}
		r.Field = f
		return nil
	}
	resolveVal := func(v Value) error {
		switch v := v.(type) {
		case *FieldRef:
			return resolveRef(v)
		case *StaticFieldRef:
			return resolveStatic(v)
		}
		return nil
	}
	for _, s := range m.Body() {
		if a, ok := s.(*AssignStmt); ok {
			if err := resolveVal(a.LHS); err != nil {
				return err
			}
			if err := resolveVal(a.RHS); err != nil {
				return err
			}
			if b, ok := a.RHS.(*Binop); ok {
				if err := resolveVal(b.L); err != nil {
					return err
				}
				if err := resolveVal(b.R); err != nil {
					return err
				}
			}
			if c, ok := a.RHS.(*Cast); ok {
				if err := resolveVal(c.X); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
