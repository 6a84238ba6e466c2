package constprop

import (
	"context"

	"flowdroid/internal/ir"
)

// AnalyzeStats runs Analyze and also reports the fixpoint's work: the
// rounds run() made and how often it analyzed each method, keyed by
// "Class.name/arity". Both are empty when the program has no reflective
// call and the fixpoint is skipped.
func AnalyzeStats(ctx context.Context, h ir.Hierarchy) (res *Result, rounds int, analyses map[string]int) {
	res, a := analyzeState(ctx, h)
	analyses = make(map[string]int)
	if a == nil {
		return res, 0, analyses
	}
	for _, mi := range a.methods {
		analyses[mi.m.String()] = mi.analyses
	}
	return res, a.rounds, analyses
}
