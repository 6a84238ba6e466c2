package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"sort"

	"flowdroid/internal/apk"
	"flowdroid/internal/summarystore"
)

// The summary store's namespace is derived from Options mechanically:
// every field, walked recursively through the nested taint.Config and
// lifecycle.Options, is part of it unless its struct tag leaves it out:
//
//	fingerprint:"schedule"    changes how much is explored or in what
//	                          order, never what a completed run computes
//	fingerprint:"deployment"  says where results are kept
//
// A new knob is therefore in the cache key by default. Forgetting to tag
// one costs cache reuse, never correctness: stale summaries are not
// replayed under a configuration they were not recorded for.
const fingerprintTag = "fingerprint"

// fingerprinter is a configuration value with its own canonical digest
// (the wrapper rule table, a sink query); the walk uses it instead of
// descending into the value.
type fingerprinter interface{ Fingerprint() string }

var fingerprinterType = reflect.TypeOf((*fingerprinter)(nil)).Elem()

// summaryFingerprint digests every configuration input that can change
// the taint solver's transfer functions or seeds, scoping the persistent
// summary store's namespace: two runs may only share summaries when they
// would compute identical per-method-context facts. The store format
// version is folded in so a scheme change invalidates wholesale, and the
// layout password controls are included because they synthesize per-app
// source rules.
func summaryFingerprint(app *apk.App, opts Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d\n", summarystore.FormatVersion)
	if err := canonical(h, "Options", reflect.TypeOf(opts), reflect.ValueOf(opts)); err != nil {
		panic(err) // TestFingerprintCoversOptions rules this out
	}
	var layouts []string
	for name, l := range app.Layouts {
		for _, c := range l.PasswordControls() {
			layouts = append(layouts, name+"/"+c.Kind+"#"+c.ID)
		}
	}
	sort.Strings(layouts)
	for _, l := range layouts {
		fmt.Fprintf(h, "layout:%s\n", l)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// excluded reports whether a field is tagged out of the fingerprint.
func excluded(f reflect.StructField) bool {
	switch f.Tag.Get(fingerprintTag) {
	case "schedule", "deployment":
		return true
	}
	return false
}

// canonical writes one "path=value" line per leaf of v (of type t) to w.
// With an invalid v it writes nothing and only checks that every value
// of t can be encoded, returning an error naming the first field that
// cannot; the fingerprint test runs that check over the option types.
func canonical(w io.Writer, path string, t reflect.Type, v reflect.Value) error {
	if t.Implements(fingerprinterType) {
		if v.IsValid() {
			fmt.Fprintf(w, "%s=%s\n", path, v.Interface().(fingerprinter).Fingerprint())
		}
		return nil
	}
	switch t.Kind() {
	// Leaves print their raw value, never through a String method, so
	// two distinct values cannot print alike.
	case reflect.Bool:
		if v.IsValid() {
			fmt.Fprintf(w, "%s=%t\n", path, v.Bool())
		}
		return nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.IsValid() {
			fmt.Fprintf(w, "%s=%d\n", path, v.Int())
		}
		return nil
	case reflect.String:
		if v.IsValid() {
			fmt.Fprintf(w, "%s=%q\n", path, v.String())
		}
		return nil
	case reflect.Slice, reflect.Array:
		if !v.IsValid() {
			return canonical(w, path+"[]", t.Elem(), v)
		}
		fmt.Fprintf(w, "%s.len=%d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			if err := canonical(w, fmt.Sprintf("%s[%d]", path, i), t.Elem(), v.Index(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if excluded(f) {
				continue
			}
			if !f.IsExported() {
				return fmt.Errorf("core: configuration field %s.%s is unexported; the summary fingerprint cannot read it", path, f.Name)
			}
			var fv reflect.Value
			if v.IsValid() {
				fv = v.Field(i)
			}
			if err := canonical(w, path+"."+f.Name, f.Type, fv); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("core: configuration field %s has kind %s, which the summary fingerprint cannot encode; "+
		"tag it %s:\"schedule\" or %s:\"deployment\", or give its type a Fingerprint() string method",
		path, t.Kind(), fingerprintTag, fingerprintTag)
}
