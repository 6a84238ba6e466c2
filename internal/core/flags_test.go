package core

import (
	"flag"
	"io"
	"reflect"
	"runtime"
	"testing"

	"flowdroid/internal/lifecycle"
)

func allFlagNames() []string {
	var names []string
	for _, f := range analysisFlags {
		names = append(names, f.name)
	}
	return names
}

// TestRegisterFlagsDefaults: with no arguments, parsing leaves the
// options at DefaultOptions, except the worker count, which defaults to
// GOMAXPROCS on the command line.
func TestRegisterFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	opts := DefaultOptions()
	RegisterFlags(fs, &opts, allFlagNames()...)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	want := DefaultOptions()
	want.Taint.Workers = runtime.GOMAXPROCS(0)
	if !reflect.DeepEqual(opts, want) {
		t.Fatalf("defaults differ:\n got %+v\nwant %+v", opts, want)
	}
}

// TestRegisterFlagsBind: every flag writes the Options field it declares.
func TestRegisterFlagsBind(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	opts := DefaultOptions()
	RegisterFlags(fs, &opts, allFlagNames()...)
	err := fs.Parse([]string{
		"-ap-length", "3", "-no-alias", "-no-activation", "-no-string-carriers", "-no-reflection",
		"-no-lifecycle", "-flat-lifecycle", "-cha", "-sinks", " sms, log ,",
		"-max-propagations", "100", "-degrade", "-workers", "2",
		"-summary-dir", t.TempDir(), "-lint.enable", "defuse",
	})
	if err != nil {
		t.Fatal(err)
	}
	tc := opts.Taint
	switch {
	case tc.APLength != 3, tc.EnableAliasing, tc.EnableActivation, tc.StringCarriers, opts.ResolveReflection:
		t.Errorf("taint switches not applied: %+v, reflection %v", tc, opts.ResolveReflection)
	case opts.Lifecycle.Mode != lifecycle.FlatLifecycle:
		t.Errorf("lifecycle mode %v, want the last switch given (flat)", opts.Lifecycle.Mode)
	case !opts.UseCHA, !opts.Degrade, tc.MaxPropagations != 100, tc.Workers != 2:
		t.Errorf("cha/degrade/budget/workers not applied: %+v", opts)
	case !reflect.DeepEqual(opts.Query.Sinks, []string{"sms", "log"}):
		t.Errorf("sinks = %q, want [sms log]", opts.Query.Sinks)
	case opts.SummaryStore == nil:
		t.Error("-summary-dir opened no store")
	case !opts.Lint || opts.LintEnable != "defuse":
		t.Errorf("-lint.enable: lint %v enable %q, want it to imply -lint", opts.Lint, opts.LintEnable)
	}

	// -no-X=false keeps the feature on.
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	opts = DefaultOptions()
	RegisterFlags(fs, &opts, "no-alias")
	if err := fs.Parse([]string{"-no-alias=false"}); err != nil || !opts.Taint.EnableAliasing {
		t.Errorf("-no-alias=false: aliasing %v, err %v", opts.Taint.EnableAliasing, err)
	}

	// An unreadable rules file is a parse error, not a silent default.
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	RegisterFlags(fs, &opts, "rules")
	if err := fs.Parse([]string{"-rules", t.TempDir() + "/missing"}); err == nil {
		t.Error("-rules with a missing file parsed without error")
	}
}
