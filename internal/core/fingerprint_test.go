package core

import (
	"reflect"
	"testing"

	"flowdroid/internal/apk"
	"flowdroid/internal/lifecycle"
	"flowdroid/internal/summarystore"
	"flowdroid/internal/taint"
	"flowdroid/internal/testapps"
)

// TestFingerprintCoversOptions walks every field of the configuration
// types the summary fingerprint descends into: each one is either tagged
// out or of a kind the canonical encoder can hash. A new field of an
// unhashable kind (a func, a map, a pointer) fails here until it is
// tagged or given a Fingerprint method.
func TestFingerprintCoversOptions(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(Options{}),
		reflect.TypeOf(taint.Config{}),
		reflect.TypeOf(lifecycle.Options{}),
	} {
		for _, f := range reflect.VisibleFields(typ) {
			if tag, ok := f.Tag.Lookup(fingerprintTag); ok {
				if !excluded(f) {
					t.Errorf("%s.%s: unknown %s tag %q (want schedule or deployment)", typ, f.Name, fingerprintTag, tag)
				}
				continue
			}
			if err := canonical(nil, typ.Name()+"."+f.Name, f.Type, reflect.Value{}); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestFingerprintIsDerived checks the fingerprint against the options it
// is derived from: every hashed knob moves it, and the tagged schedule-
// and deployment-only fields leave it alone.
func TestFingerprintIsDerived(t *testing.T) {
	app, err := apk.LoadFiles(testapps.LeakageApp)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultOptions()
	fp := summaryFingerprint(app, base)
	if again := summaryFingerprint(app, DefaultOptions()); again != fp {
		t.Fatalf("fingerprint is not deterministic: %s vs %s", fp, again)
	}

	moves := map[string]func(*Options){
		"Taint.APLength":             func(o *Options) { o.Taint.APLength = 3 },
		"Taint.EnableAliasing":       func(o *Options) { o.Taint.EnableAliasing = false },
		"Taint.StringCarriers":       func(o *Options) { o.Taint.StringCarriers = false },
		"Taint.ArrayIndexSensitive":  func(o *Options) { o.Taint.ArrayIndexSensitive = true },
		"Taint.Wrapper":              func(o *Options) { o.Taint.Wrapper = nil },
		"Lifecycle.Mode":             func(o *Options) { o.Lifecycle.Mode = lifecycle.CreateOnly },
		"Lifecycle.XMLCallbacksOnly": func(o *Options) { o.Lifecycle.XMLCallbacksOnly = true },
		"Lifecycle.SkipComponents":   func(o *Options) { o.Lifecycle.SkipComponents = []string{"a.B"} },
		"SourceSinkRules":            func(o *Options) { o.SourceSinkRules = "source x" },
		"Query":                      func(o *Options) { o.Query = Query{Sinks: []string{"sms"}} },
		"UseCHA":                     func(o *Options) { o.UseCHA = true },
		"ResolveReflection":          func(o *Options) { o.ResolveReflection = false },
	}
	for name, set := range moves {
		opts := DefaultOptions()
		set(&opts)
		if summaryFingerprint(app, opts) == fp {
			t.Errorf("changing %s left the fingerprint unchanged", name)
		}
	}

	neutral := map[string]func(*Options){
		"Taint.Workers":         func(o *Options) { o.Taint.Workers = 8 },
		"Taint.MaxLeaks":        func(o *Options) { o.Taint.MaxLeaks = 1 },
		"Taint.MaxPropagations": func(o *Options) { o.Taint.MaxPropagations = 10 },
		"Taint.Cone":            func(o *Options) { o.Taint.Cone = &taint.Cone{} },
		"Lint":                  func(o *Options) { o.Lint, o.LintEnable, o.LintDisable = true, "a", "b" },
		"Degrade":               func(o *Options) { o.Degrade = true },
		"SummaryStore":          func(o *Options) { o.SummaryStore = summarystore.Open(t.TempDir()) },
	}
	for name, set := range neutral {
		opts := DefaultOptions()
		set(&opts)
		if summaryFingerprint(app, opts) != fp {
			t.Errorf("changing the schedule- or deployment-only %s moved the fingerprint", name)
		}
	}
}
