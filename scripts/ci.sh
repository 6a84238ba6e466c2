#!/bin/sh
# ci.sh — the repository's verification gate.
#
# Runs the static checks, builds every package, runs the benchmark's
# selftest and the full test suite under the race detector (the parallel
# taint solver and the service are the main concurrency surfaces), then
# the checks that are not Go tests: the IR lint over every shipped
# program, short fuzz passes, the trace and daemon end-to-end checks.
# Correctness gates, allocation budgets included, are tests under
# ./..., so `go test ./...` is the tier-1 gate and nothing here re-runs
# a test it has already run. Any failure fails the gate.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> perfbench: go vet + go build (its own module, outside ./...)"
(cd perfbench && go vet ./... && go build -o /dev/null ./...)

echo "==> perfbench selftest (every workload once, traced and untraced, with ground-truth and replay-fidelity checks)"
python3 perfbench/run.py --selftest

echo "==> go test -race ./..."
go test -race ./...

echo "==> irlint -fixtures (IR verifier over every shipped program) + checklint"
lint_file=$(mktemp)
go run ./cmd/irlint -fixtures -json > "$lint_file"
go run ./scripts/checklint "$lint_file"
rm -f "$lint_file"

echo "==> fuzz smoke (parse-then-verify, seeded with the defect-injector corpus)"
go test -fuzz FuzzParseAndVerify -fuzztime 10s -run '^$' ./internal/irlint/

echo "==> fuzz smoke (parser, seeded with InsecureBank and an appgen Stress app)"
go test -fuzz FuzzParse -fuzztime 10s -run '^$' ./internal/irtext/

echo "==> fuzz smoke (constant propagation, seeded with an appgen Reflection app and the DroidBench reflection cases)"
go test -fuzz FuzzAnalyze -fuzztime 10s -run '^$' ./internal/constprop/

echo "==> trace smoke (flowdroid -insecurebank -trace) + checktrace"
trace_file=$(mktemp)
# InsecureBank finds leaks, so exit 1 is the expected outcome here; any
# other code is a real failure.
st=0
go run ./cmd/flowdroid -insecurebank -trace "$trace_file" >/dev/null || st=$?
if [ "$st" -ne 1 ]; then
    echo "flowdroid -insecurebank exited $st, want 1 (leaks found)" >&2
    rm -f "$trace_file"
    exit 1
fi
go run ./scripts/checktrace "$trace_file"
rm -f "$trace_file"

echo "==> checkhealth (flowdroidd submit/poll/result, /healthz, /metrics, SIGTERM drain)"
go run ./scripts/checkhealth

echo "CI OK"
