package constprop

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"flowdroid/internal/ir"
	"flowdroid/internal/scene"
)

// chainSource is a chain aNN -> ... -> a01 of static methods forwarding a
// string parameter to a01's Class.forName(s).newInstance(). The entry zz
// passes "app.B" into the far end of the chain and "app.A" into a01.
// Methods are analyzed in name order, callees before callers, so the
// "app.B" fact moves one hop per fixpoint round.
func chainSource(depth int) string {
	var sb strings.Builder
	sb.WriteString(`
class app.A { method init(): void { return } }
class app.B { method init(): void { return } }
class app.Chain {
  static method a01(s: java.lang.String): void {
    c = java.lang.Class.forName(s)
    o = c.newInstance()
    return
  }
`)
	for i := 2; i <= depth; i++ {
		fmt.Fprintf(&sb, "  static method a%02d(s: java.lang.String): void {\n    app.Chain.a%02d(s)\n    return\n  }\n", i, i-1)
	}
	fmt.Fprintf(&sb, "  static method zz(): void {\n    app.Chain.a%02d(\"app.B\")\n    app.Chain.a01(\"app.A\")\n    return\n  }\n}\n", depth)
	return sb.String()
}

func TestDeepChainReachesFixpoint(t *testing.T) {
	for _, depth := range []int{10, 40} {
		_, res := analyze(t, chainSource(depth))
		var ctors string
		for _, s := range res.Sites {
			if s.API == "java.lang.Class.newInstance" {
				ctors = strings.Join(s.Ctors, " ")
			}
		}
		if ctors != "app.A app.B" {
			t.Errorf("depth %d: newInstance constructs [%s], want [app.A app.B]", depth, ctors)
		}
	}
}

func TestRoundBoundTruncates(t *testing.T) {
	// A fixpoint that needs more rounds than its bound allows must report
	// a truncated result rather than classify a non-fixpoint.
	a := newAnalysis(context.Background(), scene.New(parse(t, chainSource(10))))
	a.maxRounds = 5
	a.run()
	if !a.truncated {
		t.Fatalf("run stopped after %d rounds of a bound of 5 without truncating", a.rounds)
	}
}

func TestNoLocalsBackEdgeConverges(t *testing.T) {
	// spin has no locals, so its states are empty, and a back edge that
	// rejoins statement 0.
	_, res := analyze(t, `
class app.A { method init(): void { return } }
class app.Main {
  static method spin(): void {
  top:
    if * goto top
    return
  }
  static method run(): void {
    app.Main.spin()
    c = java.lang.Class.forName("app.A")
    return
  }
}
`)
	if res.Report.ResolvedSites != 1 || len(res.Report.Unresolved) != 0 {
		t.Fatalf("report = %+v, want one resolved forName site", res.Report)
	}
}

func TestCleanMethodsAreNotReanalyzed(t *testing.T) {
	// run raises pick's parameter, and pick, analyzed after it in round
	// 0, raises its return fact. The facts settle in round 0; round 1
	// analyzes only run, pick's caller, and finds nothing new.
	src := `
class app.A { method init(): void { return } }
class app.Main {
  static method idle(x: java.lang.String): java.lang.String {
    return x
  }
  static method run(): void {
    n = app.Names.pick("app.A")
    c = java.lang.Class.forName(n)
    o = c.newInstance()
    return
  }
}
class app.Names {
  static method pick(s: java.lang.String): java.lang.String {
    return s
  }
}
`
	res, rounds, analyses := AnalyzeStats(context.Background(), scene.New(parse(t, src)))
	want := map[string]int{"app.A.init/0": 1, "app.Main.idle/1": 1, "app.Main.run/0": 2, "app.Names.pick/1": 1}
	if fmt.Sprint(analyses) != fmt.Sprint(want) || rounds != 2 {
		t.Errorf("analyses = %v in %d rounds, want %v in 2 rounds", analyses, rounds, want)
	}
	var got []string
	for _, s := range res.Sites {
		got = append(got, fmt.Sprintf("%s %v %v", s.API, s.Ctors, s.Unresolved))
	}
	if w := "java.lang.Class.forName [] <nil>|java.lang.Class.newInstance [app.A] <nil>"; strings.Join(got, "|") != w {
		t.Errorf("sites = %q, want %q", strings.Join(got, "|"), w)
	}
}

func TestForeignLocalsAreTop(t *testing.T) {
	// Programmatic IR can reference a local outside the method's table
	// (irlint's duplicates.local). The pass reads such a local as top,
	// and a builder stored into one escapes: without that, sb would still
	// read "app.A" after the append through t.
	src := `
class app.A { method init(): void { return } }
class app.Main {
  static method run(): void {
    sb = new java.lang.StringBuilder()
    sb.append("app.A")
    t = sb
    t.append("x")
    cn = sb.toString()
    c = java.lang.Class.forName(cn)
    return
  }
  static method other(): void {
    n = "app.A"
    return
  }
}
`
	forName := func(prog *ir.Program) string {
		res := Analyze(context.Background(), scene.New(prog))
		if len(res.Sites) != 1 || res.Sites[0].Unresolved == nil {
			t.Fatalf("sites = %+v, want one unresolved forName site", res.Sites)
		}
		return string(res.Sites[0].Unresolved.Reason)
	}
	if got := forName(parse(t, src)); got != string(UnknownClass) {
		t.Errorf("parsed program: forName unresolved as %s, want %s", got, UnknownClass)
	}

	prog := parse(t, src)
	body := prog.Class("app.Main").Method("run", 0).Body()
	foreign := &ir.Local{Name: "t"}
	body[3].(*ir.AssignStmt).LHS = foreign
	body[4].(*ir.InvokeStmt).Call.Base = foreign
	if got := forName(prog); got != string(NonConstantString) {
		t.Errorf("builder stored in a foreign local: forName unresolved as %s, want %s", got, NonConstantString)
	}

	// A local of another method, holding "app.A" there, is top here.
	prog = parse(t, src)
	shared := prog.Class("app.Main").Method("other", 0).LookupLocal("n")
	prog.Class("app.Main").Method("run", 0).Body()[6].(*ir.AssignStmt).RHS.(*ir.InvokeExpr).Args[0] = shared
	if got := forName(prog); got != string(NonConstantString) {
		t.Errorf("local shared with another method: forName unresolved as %s, want %s", got, NonConstantString)
	}

	// irlint's foreign-local program analyzes without a site.
	prog = parse(t, "class A {\n  method m(): void {\n    x = 1\n    return\n  }\n}")
	prog.Class("A").Method("m", 0).Body()[0].(*ir.AssignStmt).LHS = &ir.Local{Name: "zz"}
	if res := Analyze(context.Background(), scene.New(prog)); len(res.Sites) != 0 {
		t.Errorf("sites = %+v, want none", res.Sites)
	}
}
