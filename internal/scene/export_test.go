package scene

import (
	"fmt"
	"strings"

	"flowdroid/internal/ir"
)

// BaseIndexDigest renders everything the shared index over base holds,
// down to the method lists of its classes, so a test can tell whether
// anything wrote to it.
func BaseIndexDigest(base *ir.Program) string {
	x := baseIndex(base)
	var b strings.Builder
	for _, c := range x.classes {
		fmt.Fprintf(&b, "%s %v\n", c.Name, c.Methods())
	}
	fmt.Fprintf(&b, "own %d\nsupers %v\nsubtypes %v\nnames %v\n", len(x.own), x.supers, x.subtypes, *x.names)
	return b.String()
}
