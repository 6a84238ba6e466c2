package core

import (
	"flowdroid/internal/irlint"
	"flowdroid/internal/metrics"
	"flowdroid/internal/taint"
)

// Envelope is the machine-readable form of a run: the leak report plus
// the resilience metadata scripts branch on. The flowdroid CLI prints it
// under -json and the daemon serves it as a job's result, so both
// surfaces share one schema.
type Envelope struct {
	Status   string   `json:"status"`
	Failure  string   `json:"failure,omitempty"`
	Degraded []string `json:"degraded,omitempty"`
	Counters Counters `json:"counters"`
	// Passes reports per-pipeline-pass execution vs. memoized-artifact
	// reuse (runs/hits), non-trivial when the degrade ladder retried.
	Passes PassStats `json:"passes,omitempty"`
	// Metrics is the recorder snapshot, present only when the caller
	// supplies one (the CLI's -metrics).
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	// Lint holds the IR verifier's diagnostics, present only under
	// Options.Lint.
	Lint []irlint.Diagnostic `json:"lint,omitempty"`
	// Soundness lists what the reflection pass resolved and left opaque;
	// omitted when empty and with reflection resolution off, so
	// reflection-free apps report identically in both modes.
	Soundness *SoundnessReport   `json:"soundness,omitempty"`
	Leaks     []taint.LeakReport `json:"leaks"`
}

// NewEnvelope wraps a finished run. leaks is the report form the caller
// serializes — Taint.Report() with path witnesses or the worker-count-
// independent Taint.CanonicalReport() — and snap an optional metrics
// snapshot to embed.
func NewEnvelope(res *Result, leaks []taint.LeakReport, snap *metrics.Snapshot) Envelope {
	env := Envelope{
		Status:   res.Status.String(),
		Degraded: res.Degraded,
		Counters: res.Counters,
		Passes:   res.Passes,
		Metrics:  snap,
		Leaks:    leaks,
	}
	if res.Failure != nil {
		env.Failure = res.Failure.Error()
	}
	if res.Lint != nil {
		env.Lint = res.Lint.Diagnostics
	}
	if !res.Soundness.Empty() {
		env.Soundness = res.Soundness
	}
	return env
}
