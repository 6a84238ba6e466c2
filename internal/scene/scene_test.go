package scene_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flowdroid/internal/callgraph"
	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
	"flowdroid/internal/scene"
)

func parse(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := irtext.ParseProgram(src, "scene_test.ir")
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// hierarchySrc exercises interface-inherited default methods, diamond
// interface inheritance, and a superclass name that is never declared.
const hierarchySrc = `
class java.lang.Object {
}
interface Clickable {
  method onClick(v: java.lang.Object): void {
    return
  }
}
interface Pressable extends Clickable {
}
interface Touchable extends Clickable {
}
class Button implements Pressable, Touchable {
}
class ImageButton extends Button {
}
class Phantom extends missing.Superclass {
}
`

// TestDefaultMethodViaInterface: a concrete class that declares nothing
// itself resolves an inherited default method through its transitive
// interfaces, exactly as the raw program does.
func TestDefaultMethodViaInterface(t *testing.T) {
	prog := parse(t, hierarchySrc)
	sc := scene.New(prog)

	want := prog.Class("Clickable").Method("onClick", 1)
	if want == nil {
		t.Fatal("fixture broken: Clickable.onClick missing")
	}
	for _, cls := range []string{"Button", "Pressable", "Touchable"} {
		if got := sc.ResolveMethod(cls, "onClick", 1); got != want {
			t.Errorf("scene ResolveMethod(%s, onClick) = %v, want Clickable's default", cls, got)
		}
		if got := prog.ResolveMethod(cls, "onClick", 1); got != want {
			t.Errorf("program ResolveMethod(%s, onClick) = %v, want Clickable's default", cls, got)
		}
	}
	// The interface fallback consults only the queried class's own
	// interface list, not interfaces inherited through a superclass; the
	// scene must reproduce that limitation, not silently fix it.
	if got, want := sc.ResolveMethod("ImageButton", "onClick", 1),
		prog.ResolveMethod("ImageButton", "onClick", 1); got != want {
		t.Errorf("scene and program disagree on subclass-of-implementor: %v vs %v", got, want)
	}
}

// TestDiamondInterfaceInheritance: Button reaches Clickable along two
// interface paths; the subtype relation holds and the subtype listing
// contains each class exactly once.
func TestDiamondInterfaceInheritance(t *testing.T) {
	prog := parse(t, hierarchySrc)
	sc := scene.New(prog)

	if !sc.SubtypeOf("Button", "Clickable") || !sc.SubtypeOf("ImageButton", "Clickable") {
		t.Error("diamond path to Clickable not reflected in SubtypeOf")
	}
	subs := sc.SubtypesOf("Clickable")
	want := []string{"Button", "Clickable", "ImageButton", "Pressable", "Touchable"}
	if fmt.Sprint(subs) != fmt.Sprint(want) {
		t.Errorf("SubtypesOf(Clickable) = %v, want %v (each subtype once, sorted)", subs, want)
	}
}

// TestMissingSuperclassName: an undeclared superclass is still a valid
// supertype target, terminates resolution walks cleanly, and never shows
// itself in subtype listings (only declared classes do).
func TestMissingSuperclassName(t *testing.T) {
	prog := parse(t, hierarchySrc)
	sc := scene.New(prog)

	if !sc.SubtypeOf("Phantom", "missing.Superclass") {
		t.Error("SubtypeOf(Phantom, missing.Superclass) = false, want true")
	}
	if sc.SubtypeOf("Button", "missing.Superclass") {
		t.Error("unrelated class reported as subtype of the missing name")
	}
	subs := sc.SubtypesOf("missing.Superclass")
	if fmt.Sprint(subs) != fmt.Sprint([]string{"Phantom"}) {
		t.Errorf("SubtypesOf(missing.Superclass) = %v, want [Phantom]", subs)
	}
	if m := sc.ResolveMethod("Phantom", "anything", 0); m != nil {
		t.Errorf("resolution through a missing superclass returned %v, want nil", m)
	}
	// Identical answers from the uncached program.
	if !prog.SubtypeOf("Phantom", "missing.Superclass") {
		t.Error("program disagrees on SubtypeOf(Phantom, missing.Superclass)")
	}
	if fmt.Sprint(prog.SubtypesOf("missing.Superclass")) != fmt.Sprint(subs) {
		t.Error("program and scene disagree on SubtypesOf(missing.Superclass)")
	}
}

// TestCyclicHierarchyTolerated: a malformed class graph with a superclass
// cycle must not hang Scene construction or queries, and must agree with
// the program's cycle-guarded walk.
func TestCyclicHierarchyTolerated(t *testing.T) {
	prog := ir.NewProgram()
	for _, c := range []*ir.Class{
		ir.NewClass("A", "B"),
		ir.NewClass("B", "A"),
		ir.NewClass("C", "A"),
	} {
		if err := prog.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	sc := scene.New(prog)
	cases := []struct {
		sub, super string
		want       bool
	}{
		{"A", "B", true}, {"B", "A", true}, {"C", "B", true},
		{"A", "C", false}, {"A", "A", true},
	}
	for _, c := range cases {
		if got := sc.SubtypeOf(c.sub, c.super); got != c.want {
			t.Errorf("scene SubtypeOf(%s, %s) = %v, want %v", c.sub, c.super, got, c.want)
		}
		if got := prog.SubtypeOf(c.sub, c.super); got != c.want {
			t.Errorf("program SubtypeOf(%s, %s) = %v, want %v", c.sub, c.super, got, c.want)
		}
	}
}

// TestResolutionCacheConsistencyAfterRefresh: cached answers — including
// negative ones — are dropped by Refresh, so resolution reflects classes
// and members added after the scene was built.
func TestResolutionCacheConsistencyAfterRefresh(t *testing.T) {
	prog := parse(t, hierarchySrc)
	sc := scene.New(prog)

	// Prime a positive and a negative cache entry.
	if sc.ResolveMethod("Button", "onClick", 1) == nil {
		t.Fatal("Button.onClick did not resolve")
	}
	if sc.ResolveMethod("Widget", "onClick", 1) != nil {
		t.Fatal("undeclared Widget resolved before it exists")
	}
	if !sc.SubtypeOf("Button", "Clickable") || sc.SubtypeOf("Widget", "Clickable") {
		t.Fatal("baseline subtype answers wrong")
	}

	// Grow the program: Widget implements Clickable with its own override.
	w := ir.NewClass("Widget", "java.lang.Object")
	w.Interfaces = []string{"Clickable"}
	own := ir.NewMethod("onClick", ir.Void, false)
	own.Params = []*ir.Local{{Name: "v", Type: ir.Ref("java.lang.Object")}}
	if err := w.AddMethod(own); err != nil {
		t.Fatal(err)
	}
	if err := prog.AddClass(w); err != nil {
		t.Fatal(err)
	}
	sc.Refresh()

	if got := sc.ResolveMethod("Widget", "onClick", 1); got != own {
		t.Errorf("after Refresh, ResolveMethod(Widget, onClick) = %v, want the new override", got)
	}
	if !sc.SubtypeOf("Widget", "Clickable") {
		t.Error("after Refresh, Widget is not a Clickable subtype")
	}
	subs := sc.SubtypesOf("Clickable")
	found := false
	for _, s := range subs {
		if s == "Widget" {
			found = true
		}
	}
	if !found {
		t.Errorf("after Refresh, SubtypesOf(Clickable) = %v, missing Widget", subs)
	}
	// Memoization still sound: repeated queries return the same pointer
	// and register as hits.
	before := sc.Stats()
	if sc.ResolveMethod("Widget", "onClick", 1) != own {
		t.Error("repeated resolution changed its answer")
	}
	if after := sc.Stats(); after.MethodHits != before.MethodHits+1 {
		t.Errorf("repeated resolution was not a cache hit (%d -> %d)", before.MethodHits, after.MethodHits)
	}
}

// TestSceneMatchesProgramOnRandomHierarchies cross-checks every hierarchy
// query and CHA dispatch against an uncached program on randomly
// generated class graphs with interfaces, dangling supertype names, and
// scattered members. Half the trials put the classes in one program; the
// other half split them into a frozen base, an app fork over it and
// classes the fork gains before a Refresh. The split trials draw the
// adversarial cases of a shared base index: base classes that name
// supertypes only the app declares, and, in every third trial, cycles
// that cross the base/app boundary.
func TestSceneMatchesProgramOnRandomHierarchies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		forked := trial%2 == 1
		cyclic := forked && trial%3 == 0
		nb, na, nl := 3+rng.Intn(12), 0, 0
		if forked {
			na, nl = 1+rng.Intn(5), 1+rng.Intn(4)
		}
		var names []string
		for i := range nb + na + nl {
			switch {
			case i < nb:
				names = append(names, fmt.Sprintf("B%d", i))
			case i < nb+na:
				names = append(names, fmt.Sprintf("A%d", i-nb))
			default:
				names = append(names, fmt.Sprintf("L%d", i-nb-na))
			}
		}
		// An acyclic trial only points from a class to higher-ranked
		// names (a DAG), plus the occasional dangling name that is never
		// declared. Ranks mix base and app names, so a base class may
		// name a supertype only the app declares.
		rank := rng.Perm(len(names))
		if !forked {
			for i := range rank {
				rank[i] = i
			}
		}
		target := func(i int) (string, bool) {
			var above []string
			for j, n := range names {
				if cyclic || rank[j] > rank[i] {
					above = append(above, n)
				}
			}
			if len(above) == 0 {
				return "", false
			}
			return above[rng.Intn(len(above))], true
		}
		classes := make([]*ir.Class, len(names))
		for i, name := range names {
			super := ""
			switch pick := rng.Intn(4); pick {
			case 0:
				super, _ = target(i)
			case 1:
				super = fmt.Sprintf("dangling.D%d", rng.Intn(3))
			}
			c := ir.NewClass(name, super)
			c.Interface = rng.Intn(3) == 0
			for k := 0; k < rng.Intn(3); k++ {
				if in, ok := target(i); ok {
					c.Interfaces = append(c.Interfaces, in)
				}
			}
			if rng.Intn(2) == 0 {
				addMethod(t, c, fmt.Sprintf("m%d", rng.Intn(3)), rng.Intn(2))
			}
			if rng.Intn(2) == 0 {
				if _, err := c.AddField(fmt.Sprintf("f%d", rng.Intn(3)), ir.Int, false); err != nil {
					t.Fatal(err)
				}
			}
			classes[i] = c
		}
		queries := append(append([]string{}, names...), "dangling.D0", "dangling.D1", "nowhere.X")
		label := fmt.Sprintf("trial %d", trial)
		if !forked {
			prog := programOf(t, classes...)
			checkAgainstProgram(t, label, scene.New(prog), prog, queries, true)
			continue
		}
		base := programOf(t, classes[:nb]...)
		base.Freeze()
		prog := base.Fork()
		addClasses(t, prog, classes[nb:nb+na]...)
		sc := scene.New(prog)
		checkAgainstProgram(t, label+" before Refresh", sc, programOf(t, classes[:nb+na]...), queries, !cyclic)

		// The fork gains the late classes and its own classes gain
		// members; Refresh must pick up both.
		addClasses(t, prog, classes[nb+na:]...)
		for _, c := range classes[nb : nb+na] {
			if rng.Intn(2) == 0 {
				addMethod(t, c, fmt.Sprintf("m%d", rng.Intn(3)), 2)
			}
		}
		sc.Refresh()
		checkAgainstProgram(t, label+" after Refresh", sc, programOf(t, classes...), queries, !cyclic)

		// A second fork of the same base, with only the late classes, reads
		// the same shared base index: the first fork left no trace in it.
		other := base.Fork()
		addClasses(t, other, classes[nb+na:]...)
		flat := programOf(t, append(append([]*ir.Class{}, classes[:nb]...), classes[nb+na:]...)...)
		checkAgainstProgram(t, label+" second fork", scene.New(other), flat, queries, !cyclic)
	}
}

// TestOpenBase: a frozen class may name a supertype that only an app
// declares. The shared base index must not treat the base as closed: in
// the fork that declares the name, the base class gains the app class's
// supertypes, while a fork that does not declare it still sees a dangling
// name.
func TestOpenBase(t *testing.T) {
	root := ir.NewClass("lib.Root", "")
	addMethod(t, root, "draw", 0)
	widget := ir.NewClass("lib.Widget", "app.Missing")
	button := ir.NewClass("lib.Button", "lib.Widget")
	base := programOf(t, root, widget, button)
	base.Freeze()

	missing := ir.NewClass("app.Missing", "lib.Root")
	missing.Interfaces = []string{"app.Marker"}
	marker := ir.NewClass("app.Marker", "")
	marker.Interface = true
	prog := base.Fork()
	addClasses(t, prog, missing, marker)
	sc := scene.New(prog)
	queries := []string{"lib.Root", "lib.Widget", "lib.Button", "app.Missing", "app.Marker", "nowhere.X"}
	checkAgainstProgram(t, "open base", sc, programOf(t, root, widget, button, missing, marker), queries, true)
	if !sc.SubtypeOf("lib.Button", "lib.Root") || !sc.SubtypeOf("lib.Widget", "app.Marker") {
		t.Error("base classes did not gain the supertypes of the app class they name")
	}
	if got, want := fmt.Sprint(sc.SubtypesOf("lib.Root")), "[app.Missing lib.Button lib.Root lib.Widget]"; got != want {
		t.Errorf("SubtypesOf(lib.Root) = %s, want %s", got, want)
	}

	closed := scene.New(base.Fork())
	checkAgainstProgram(t, "closed fork", closed, programOf(t, root, widget, button), queries, true)
	if closed.SubtypeOf("lib.Button", "lib.Root") || !closed.SubtypeOf("lib.Button", "app.Missing") {
		t.Error("a fork that does not declare app.Missing saw another fork's hierarchy")
	}
}

// TestCycleAcrossBaseAndApp: superclass and interface cycles that pass
// through both a frozen base class and an app class must terminate and
// agree with the program's cycle-guarded walk.
func TestCycleAcrossBaseAndApp(t *testing.T) {
	a := ir.NewClass("lib.A", "app.B")
	i := ir.NewClass("lib.I", "")
	i.Interface = true
	i.Interfaces = []string{"app.J"}
	base := programOf(t, a, i)
	base.Freeze()

	b := ir.NewClass("app.B", "lib.A")
	c := ir.NewClass("app.C", "app.B")
	c.Interfaces = []string{"lib.I"}
	j := ir.NewClass("app.J", "")
	j.Interface = true
	j.Interfaces = []string{"lib.I"}
	prog := base.Fork()
	addClasses(t, prog, b, c, j)
	sc := scene.New(prog)
	queries := []string{"lib.A", "lib.I", "app.B", "app.C", "app.J"}
	checkAgainstProgram(t, "cycle", sc, programOf(t, a, i, b, c, j), queries, false)
	if !sc.SubtypeOf("lib.A", "app.B") || !sc.SubtypeOf("app.B", "lib.A") || !sc.SubtypeOf("lib.I", "app.J") {
		t.Error("a cycle across the base/app boundary lost an edge")
	}
}

// programOf returns a new, unfrozen program holding classes: the
// from-scratch oracle a scene must agree with.
func programOf(t *testing.T, classes ...*ir.Class) *ir.Program {
	t.Helper()
	prog := ir.NewProgram()
	addClasses(t, prog, classes...)
	return prog
}

func addClasses(t *testing.T, prog *ir.Program, classes ...*ir.Class) {
	t.Helper()
	for _, c := range classes {
		if err := prog.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
}

// addMethod declares a bodyless method with nargs parameters on c, unless
// c already has one of that name and arity.
func addMethod(t *testing.T, c *ir.Class, name string, nargs int) {
	t.Helper()
	if c.Method(name, nargs) != nil {
		return
	}
	m := ir.NewMethod(name, ir.Void, false)
	for k := range nargs {
		m.Params = append(m.Params, &ir.Local{Name: fmt.Sprintf("p%d", k)})
	}
	if err := c.AddMethod(m); err != nil {
		t.Fatal(err)
	}
}

// checkAgainstProgram requires sc to answer every hierarchy query on
// queries exactly as prog does, and its resolver to dispatch every
// virtual call exactly as a resolver built over prog from scratch. The
// program's member walks do not guard against superclass cycles, so
// members is false for cyclic hierarchies and only subtyping is checked.
func checkAgainstProgram(t *testing.T, label string, sc *scene.Scene, prog *ir.Program, queries []string, members bool) {
	t.Helper()
	if got, want := classNames(sc.Classes()), classNames(prog.Classes()); got != want {
		t.Fatalf("%s: Classes: scene %s, program %s", label, got, want)
	}
	for _, sub := range queries {
		for _, super := range queries {
			if got, want := sc.SubtypeOf(sub, super), prog.SubtypeOf(sub, super); got != want {
				t.Fatalf("%s: SubtypeOf(%s, %s): scene %v, program %v", label, sub, super, got, want)
			}
		}
		if got, want := fmt.Sprint(sc.SubtypesOf(sub)), fmt.Sprint(prog.SubtypesOf(sub)); got != want {
			t.Fatalf("%s: SubtypesOf(%s): scene %v, program %v", label, sub, got, want)
		}
	}
	if !members {
		return
	}
	oracle := callgraph.NewResolver(prog)
	for _, q := range append(queries, "") {
		for k := 0; k < 3; k++ {
			mn := fmt.Sprintf("m%d", k)
			if got, want := sc.ResolveMethod(q, mn, 0), prog.ResolveMethod(q, mn, 0); got != want {
				t.Fatalf("%s: ResolveMethod(%s, %s): scene %v, program %v", label, q, mn, got, want)
			}
			fn := fmt.Sprintf("f%d", k)
			if got, want := sc.ResolveField(q, fn), prog.ResolveField(q, fn); got != want {
				t.Fatalf("%s: ResolveField(%s, %s): scene %v, program %v", label, q, fn, got, want)
			}
			for nargs := 0; nargs < 3; nargs++ {
				e := &ir.InvokeExpr{Kind: ir.VirtualInvoke, Ref: ir.MethodRef{Class: q, Name: mn, NArgs: nargs}}
				if got, want := sc.Resolver().VirtualTargets(e), oracle.VirtualTargets(e); !slices.Equal(got, want) {
					t.Fatalf("%s: VirtualTargets(%s.%s/%d): scene %v, program %v", label, q, mn, nargs, got, want)
				}
			}
		}
	}
}

func classNames(classes []*ir.Class) string {
	var b strings.Builder
	for _, c := range classes {
		b.WriteString(c.Name + " ")
	}
	return b.String()
}
