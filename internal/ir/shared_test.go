package ir

import (
	"fmt"
	"strings"
	"testing"
)

// frozenLib builds, links and freezes a small library program: a base
// class with a field and a bodyless method for app classes to extend.
func frozenLib(t *testing.T) *Program {
	t.Helper()
	lib := NewProgram()
	NewClassIn(lib, "java.lang.Object", "")
	NewClassIn(lib, "lib.Base", "").
		Field("f", Ref("java.lang.String")).
		AbstractMethod("get", Ref("java.lang.String"))
	if err := lib.Link(); err != nil {
		t.Fatal(err)
	}
	lib.Freeze()
	return lib
}

func TestForkSharesFrozenClasses(t *testing.T) {
	lib := frozenLib(t)
	a, b := lib.Fork(), lib.Fork()
	base := lib.Class("lib.Base")
	if !base.Shared() || a.Class("lib.Base") != base || b.Class("lib.Base") != base {
		t.Fatal("forks must share the frozen class pointers")
	}
	field := base.Field("f")
	if a.ResolveField("lib.Base", "f") != field || b.ResolveField("lib.Base", "f") != field {
		t.Error("forks must share the frozen field pointers")
	}

	// An app class added to one fork links against the shared classes
	// and stays invisible to the library and the other fork.
	mb := NewClassIn(a, "app.A", "lib.Base").Method("m", Ref("java.lang.String"))
	x, y := mb.Local("x"), mb.Local("y")
	mb.Assign(x, &FieldRef{Base: mb.This(), Name: "f"}).
		VCallTo(y, mb.This(), "get").
		Return(y).
		Done()
	if err := a.Link(); err != nil {
		t.Fatal(err)
	}
	app := a.Class("app.A")
	if app.Shared() {
		t.Error("a class added to a fork must not be shared")
	}
	if lib.Class("app.A") != nil || b.Class("app.A") != nil {
		t.Error("a class added to one fork leaked into the library or another fork")
	}
	if got, want := len(a.Classes()), 3; got != want {
		t.Errorf("fork has %d classes, want %d", got, want)
	}
	if got, want := len(b.Classes()), 2; got != want {
		t.Errorf("untouched fork has %d classes, want %d", got, want)
	}
	load := app.Method("m", 0).Body()[0].(*AssignStmt).RHS.(*FieldRef)
	if load.Field != field {
		t.Errorf("field reference resolved to %v, want the shared %v", load.Field, field)
	}
	if str := Ref("java.lang.String"); !x.Type.Equal(str) || !y.Type.Equal(str) {
		t.Errorf("inferred x: %v, y: %v; want both %v from the shared declarations", x.Type, y.Type, str)
	}
}

func TestSharedClassRejectsMembers(t *testing.T) {
	base := frozenLib(t).Fork().Class("lib.Base")
	if _, err := base.AddField("g", Int, false); err == nil || !strings.Contains(err.Error(), "shared") {
		t.Errorf("AddField on a shared class: got %v, want a shared-class error", err)
	}
	if err := base.AddMethod(NewMethod("put", Void, false)); err == nil || !strings.Contains(err.Error(), "shared") {
		t.Errorf("AddMethod on a shared class: got %v, want a shared-class error", err)
	}
	if base.Field("g") != nil || base.Method("put", 0) != nil {
		t.Error("a rejected member was added anyway")
	}
}

func TestForkRecordsBaseAndOwnClasses(t *testing.T) {
	lib := frozenLib(t)
	if err := lib.AddClass(NewClass("late.C", "")); err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Errorf("AddClass on a frozen program: got %v, want a frozen-program error", err)
	}
	if lib.Base() != nil || len(lib.OwnClasses()) != 2 {
		t.Errorf("a program with no base owns all of its classes; got base %v, %d own", lib.Base(), len(lib.OwnClasses()))
	}

	a := lib.Fork()
	NewClassIn(a, "app.Z", "lib.Base")
	NewClassIn(a, "app.A", "lib.Base")
	own := a.OwnClasses()
	if a.Base() != lib || classNames(own) != "app.A app.Z" {
		t.Fatalf("fork: base %p (want %p), own %q", a.Base(), lib, classNames(own))
	}
	// A fork of an unfrozen fork keeps the frozen base and copies what
	// its parent owns; adding to either side leaves the other alone, and
	// slices handed out earlier keep their contents.
	b := a.Fork()
	NewClassIn(b, "app.M", "")
	NewClassIn(a, "app.B", "")
	if b.Base() != lib || classNames(b.OwnClasses()) != "app.A app.M app.Z" {
		t.Errorf("fork of a fork: base %p, own %q", b.Base(), classNames(b.OwnClasses()))
	}
	if classNames(a.OwnClasses()) != "app.A app.B app.Z" || classNames(own) != "app.A app.Z" {
		t.Errorf("own classes after adds: %q, earlier slice %q", classNames(a.OwnClasses()), classNames(own))
	}
}

func TestMethodsStaySortedAndStable(t *testing.T) {
	c := NewClass("app.C", "")
	add := func(name string, nargs int) {
		m := NewMethod(name, Void, true)
		for range nargs {
			m.Params = append(m.Params, &Local{Name: "p"})
		}
		if err := c.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	add("run", 1)
	add("b", 0)
	add("run", 0)
	before := c.Methods()
	add("a", 2)
	add("c", 0)
	if got, want := methodNames(c.Methods()), "a/2 b/0 c/0 run/0 run/1"; got != want {
		t.Errorf("Methods() = %s, want %s", got, want)
	}
	if got, want := methodNames(before), "b/0 run/0 run/1"; got != want {
		t.Errorf("a slice handed out before AddMethod changed to %s, want %s", got, want)
	}
	if got, want := methodNames(c.MethodsNamed("run")), "run/0 run/1"; got != want {
		t.Errorf("MethodsNamed(run) = %s, want %s", got, want)
	}
	if c.MethodsNamed("missing") != nil {
		t.Error("MethodsNamed of an undeclared name is not nil")
	}
}

func classNames(cs []*Class) string {
	var names []string
	for _, c := range cs {
		names = append(names, c.Name)
	}
	return strings.Join(names, " ")
}

func methodNames(ms []*Method) string {
	var names []string
	for _, m := range ms {
		names = append(names, fmt.Sprintf("%s/%d", m.Name, len(m.Params)))
	}
	return strings.Join(names, " ")
}
