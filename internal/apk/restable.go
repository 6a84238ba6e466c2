package apk

import (
	"fmt"
	"sort"

	"flowdroid/internal/ir"
)

// Resource ID bases follow the layout of real aapt-generated R classes.
const (
	layoutIDBase = 0x7f030000
	widgetIDBase = 0x7f050000
)

// ResTable is the synthesized resource-ID table of an app: the stand-in
// for the compiled resources (R class) of a real APK. IDs are assigned
// deterministically from the sorted resource names, so analyses and tests
// see stable values.
type ResTable struct {
	byName map[string]int64 // "id/pwdString", "layout/main" -> id
	byID   map[int64]string
}

// NewResTable builds a table for the given widget-ID names and layout
// names.
func NewResTable(widgetIDs, layouts []string) *ResTable {
	t := &ResTable{byName: make(map[string]int64), byID: make(map[int64]string)}
	assign := func(names []string, kind string, base int64) {
		sorted := append([]string(nil), names...)
		sort.Strings(sorted)
		for i, n := range sorted {
			full := kind + "/" + n
			if _, dup := t.byName[full]; dup {
				continue
			}
			id := base + int64(i)
			t.byName[full] = id
			t.byID[id] = full
		}
	}
	assign(layouts, "layout", layoutIDBase)
	assign(widgetIDs, "id", widgetIDBase)
	return t
}

// Lookup resolves a symbolic name ("id/pwdString" or "layout/main").
func (t *ResTable) Lookup(name string) (int64, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// NameOf maps a resolved ID back to its symbolic name.
func (t *ResTable) NameOf(id int64) (string, bool) {
	n, ok := t.byID[id]
	return n, ok
}

// resRef is a resource constant operand and the method whose body holds
// it.
type resRef struct {
	c *ir.Const
	m *ir.Method
}

// resolve sets every resource constant in refs to its integer ID. Unknown
// names are an error: the code references a resource the package does not
// define.
func (t *ResTable) resolve(refs []resRef) error {
	var firstErr error
	for _, r := range refs {
		id, found := t.Lookup(r.c.Str)
		if !found {
			if firstErr == nil {
				firstErr = fmt.Errorf("apk: %s references undefined resource @%s", r.m, r.c.Str)
			}
			continue
		}
		r.c.Int = id
	}
	return firstErr
}

// resRefs returns every resource constant operand in the method bodies
// of prog's unshared classes (shared classes are read-only and have no
// app code), in class, method and statement order. It looks in every
// operand position: both sides of an assignment, binop, cast and
// array-index operands, invocation arguments and return values. The
// loader registers the names and resolves the constants from this one
// list, so every name that is resolved has been registered.
func resRefs(prog *ir.Program) []resRef {
	var out []resRef
	var m *ir.Method
	var walk func(v ir.Value)
	walk = func(v ir.Value) {
		switch v := v.(type) {
		case *ir.Const:
			if v.Kind == ir.ResConst {
				out = append(out, resRef{v, m})
			}
		case *ir.Binop:
			walk(v.L)
			walk(v.R)
		case *ir.Cast:
			walk(v.X)
		case *ir.ArrayRef:
			walk(v.Index)
		case *ir.InvokeExpr:
			for _, a := range v.Args {
				walk(a)
			}
		}
	}
	for _, cls := range prog.Classes() {
		if cls.Shared() {
			continue
		}
		for _, m = range cls.Methods() {
			for _, s := range m.Body() {
				switch s := s.(type) {
				case *ir.AssignStmt:
					walk(s.RHS)
					walk(s.LHS)
				case *ir.InvokeStmt:
					walk(s.Call)
				case *ir.ReturnStmt:
					walk(s.Value)
				}
			}
		}
	}
	return out
}

// ConstID returns the resolved integer value of a constant operand, or
// (0, false) if v is not an integer or resource constant.
func ConstID(v ir.Value) (int64, bool) {
	c, ok := v.(*ir.Const)
	if !ok {
		return 0, false
	}
	switch c.Kind {
	case ir.IntConst, ir.ResConst:
		return c.Int, true
	}
	return 0, false
}
