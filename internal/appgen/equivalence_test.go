package appgen

import (
	"context"
	"fmt"
	"testing"

	"flowdroid/internal/core"
)

// withOptions is a RunOptions over core.DefaultOptions changed by set.
func withOptions(set func(*core.Options)) RunOptions {
	opts := core.DefaultOptions()
	set(&opts)
	return RunOptions{Options: &opts}
}

// workers is a RunOptions with the given taint worker count.
func workers(w int) RunOptions {
	return withOptions(func(o *core.Options) { o.Taint.Workers = w })
}

// TestCorpusWorkerCountEquivalence: a corpus batch must aggregate to the
// same leak statistics at any taint worker count — same total, same
// apps-with-leaks count, same per-sink distribution.
func TestCorpusWorkerCountEquivalence(t *testing.T) {
	const n, seed = 6, 42
	base, err := RunCorpusWith(context.Background(), Stress, n, seed, workers(1))
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalFound == 0 {
		t.Fatal("stress corpus found no leaks; the equivalence check would be vacuous")
	}
	if base.Errors+base.Recovered+base.Incomplete > 0 {
		t.Fatalf("sequential baseline had abnormal outcomes: %+v", base.Failures)
	}
	for _, w := range []int{2, 8} {
		stats, err := RunCorpusWith(context.Background(), Stress, n, seed, workers(w))
		if err != nil {
			t.Fatal(err)
		}
		if stats.TotalFound != base.TotalFound || stats.AppsWithLeaks != base.AppsWithLeaks {
			t.Errorf("workers=%d: found %d leaks in %d apps, want %d in %d",
				w, stats.TotalFound, stats.AppsWithLeaks, base.TotalFound, base.AppsWithLeaks)
		}
		if got, want := fmt.Sprint(stats.BySink), fmt.Sprint(base.BySink); got != want {
			t.Errorf("workers=%d: sink distribution %s, want %s", w, got, want)
		}
	}
}

// TestCorpusStringCarrierEquivalence: the string-carrier fast path must
// not change corpus-level results — same totals and sink distribution with
// carriers on and off, sequential and parallel. The stress profile's
// helpers launder values through StringBuilder chains, so the carrier
// transfers (and the alias gate) are genuinely exercised.
func TestCorpusStringCarrierEquivalence(t *testing.T) {
	const n, seed = 6, 42
	base, err := RunCorpusWith(context.Background(), Stress, n, seed, workers(1))
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalFound == 0 {
		t.Fatal("stress corpus found no leaks; the equivalence check would be vacuous")
	}
	for _, w := range []int{1, 8} {
		stats, err := RunCorpusWith(context.Background(), Stress, n, seed,
			withOptions(func(o *core.Options) { o.Taint.Workers, o.Taint.StringCarriers = w, false }))
		if err != nil {
			t.Fatal(err)
		}
		if stats.TotalFound != base.TotalFound || stats.AppsWithLeaks != base.AppsWithLeaks {
			t.Errorf("carriers off, workers=%d: found %d leaks in %d apps, want %d in %d",
				w, stats.TotalFound, stats.AppsWithLeaks, base.TotalFound, base.AppsWithLeaks)
		}
		if got, want := fmt.Sprint(stats.BySink), fmt.Sprint(base.BySink); got != want {
			t.Errorf("carriers off, workers=%d: sink distribution %s, want %s", w, got, want)
		}
	}
}
