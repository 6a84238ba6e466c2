package core

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"flowdroid/internal/lifecycle"
	"flowdroid/internal/summarystore"
)

// binder registers one flag on fs, bound straight into o.
type binder func(fs *flag.FlagSet, o *Options, name, usage string)

// analysisFlag declares one analysis command-line flag. Its default is
// the value o holds when the flag is registered (DefaultOptions on every
// CLI) unless the binder states its own.
type analysisFlag struct {
	name, usage string
	bind        binder
}

// analysisFlags is the one declaration of every analysis flag the CLIs
// share. A CLI picks the ones it offers with RegisterFlags.
var analysisFlags = []analysisFlag{
	{"ap-length", "maximal access-path length", intVar(func(o *Options) *int { return &o.Taint.APLength })},
	{"no-alias", "disable the on-demand alias analysis", boolFunc(func(o *Options, v bool) { o.Taint.EnableAliasing = !v })},
	{"no-activation", "disable activation statements (Andromeda-style aliasing)", boolFunc(func(o *Options, v bool) { o.Taint.EnableActivation = !v })},
	{"no-string-carriers", "disable the string-carrier fast path (String/StringBuilder/StringBuffer transfer functions and alias-search gating)", boolFunc(func(o *Options, v bool) { o.Taint.StringCarriers = !v })},
	{"no-reflection", "disable reflection resolution (constant-string propagation, reflective call edges and the soundness report)", boolFunc(func(o *Options, v bool) { o.ResolveReflection = !v })},
	// The lifecycle switches select a mode; the last one given wins.
	{"no-lifecycle", "model only component creation, not the full lifecycle", boolFunc(func(o *Options, v bool) {
		if v {
			o.Lifecycle.Mode = lifecycle.CreateOnly
		}
	})},
	{"flat-lifecycle", "single-pass lifecycle in canonical order", boolFunc(func(o *Options, v bool) {
		if v {
			o.Lifecycle.Mode = lifecycle.FlatLifecycle
		}
	})},
	{"cha", "use the CHA call graph instead of points-to", boolVar(func(o *Options) *bool { return &o.UseCHA })},
	{"rules", "replace the built-in source/sink rules with this `file`", funcVar(func(o *Options, path string) error {
		if path == "" {
			o.SourceSinkRules = ""
			return nil
		}
		data, err := os.ReadFile(path)
		o.SourceSinkRules = string(data)
		return err
	})},
	{"sinks", "comma-separated sink `selectors` (label, Class.method, Class.method/N) for a demand-driven query; empty = all sinks", funcVar(func(o *Options, list string) error {
		o.Query.Sinks = nil
		for _, sel := range strings.Split(list, ",") {
			if sel = strings.TrimSpace(sel); sel != "" {
				o.Query.Sinks = append(o.Query.Sinks, sel)
			}
		}
		return nil
	})},
	{"max-propagations", "taint-propagation budget per analysis (0 = unlimited)", intVar(func(o *Options) *int { return &o.Taint.MaxPropagations })},
	{"degrade", "on budget exhaustion retry with cheaper configurations (CHA, shorter access paths)", boolVar(func(o *Options) *bool { return &o.Degrade })},
	{"workers", "taint solver worker-pool size (<=1 = sequential)", func(fs *flag.FlagSet, o *Options, name, usage string) {
		fs.IntVar(&o.Taint.Workers, name, runtime.GOMAXPROCS(0), usage)
	}},
	{"summary-dir", "persistent method-summary store `directory` for warm re-analysis (empty = disabled)", funcVar(func(o *Options, dir string) error {
		o.SummaryStore = summarystore.Open(dir)
		return nil
	})},
	{"lint", "run the IR verifier before the solvers; Error diagnostics abort with status InvalidProgram", boolVar(func(o *Options) *bool { return &o.Lint })},
	{"lint.enable", "comma-separated analyzer `names` to run (default: all; implies -lint)", funcVar(func(o *Options, names string) error {
		o.LintEnable = names
		o.Lint = o.Lint || names != ""
		return nil
	})},
	{"lint.disable", "comma-separated analyzer `names` to skip (implies -lint)", funcVar(func(o *Options, names string) error {
		o.LintDisable = names
		o.Lint = o.Lint || names != ""
		return nil
	})},
}

// RegisterFlags registers the named analysis flags on fs, each bound
// straight into o, so parsing the command line fills o in place. It
// panics on a name the table does not declare.
func RegisterFlags(fs *flag.FlagSet, o *Options, names ...string) {
	for _, name := range names {
		i := slices.IndexFunc(analysisFlags, func(f analysisFlag) bool { return f.name == name })
		if i < 0 {
			panic(fmt.Sprintf("core: no analysis flag -%s", name))
		}
		analysisFlags[i].bind(fs, o, name, analysisFlags[i].usage)
	}
}

func intVar(field func(*Options) *int) binder {
	return func(fs *flag.FlagSet, o *Options, name, usage string) {
		p := field(o)
		fs.IntVar(p, name, *p, usage)
	}
}

func boolVar(field func(*Options) *bool) binder {
	return func(fs *flag.FlagSet, o *Options, name, usage string) {
		p := field(o)
		fs.BoolVar(p, name, *p, usage)
	}
}

// boolFunc binds a switch (no argument needed) that calls set once parsed.
func boolFunc(set func(o *Options, v bool)) binder {
	return func(fs *flag.FlagSet, o *Options, name, usage string) {
		fs.BoolFunc(name, usage, func(s string) error {
			v, err := strconv.ParseBool(s)
			if err == nil {
				set(o, v)
			}
			return err
		})
	}
}

func funcVar(set func(o *Options, s string) error) binder {
	return func(fs *flag.FlagSet, o *Options, name, usage string) {
		fs.Func(name, usage, func(s string) error { return set(o, s) })
	}
}
