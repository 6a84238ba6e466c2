#!/bin/sh
# ci.sh — the repository's verification gate.
#
# Runs the static checks, builds every package, and runs the full test
# suite under the race detector (the parallel IFDS solver is the main
# concurrency surface). Any failure fails the gate.
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

echo "==> go test -race ./internal/taint/... (parallel taint solver)"
go test -race ./internal/taint/...

# The smoke benches write their BENCH_*.json reports to the working
# directory. They run from a scratch directory, so the tracked copies in
# the repository keep their recorded numbers instead of this host's.
bench_dir=$(mktemp -d)
echo "==> bench smoke (one-shot, compile + run sanity; emits BENCH_taint.json, BENCH_strings.json, BENCH_metrics.json, BENCH_query.json, BENCH_incr.json and BENCH_reflect.json into $bench_dir)"
go test -c -o "$bench_dir/root.test" .
(cd "$bench_dir" && ./root.test -test.bench 'Smoke|QueryTaint|IncrementalTaint|ReflectionTaint' -test.benchtime=1x -test.run '^$')

echo "==> checkbench (BENCH_taint.json + BENCH_strings.json + BENCH_metrics.json + BENCH_query.json + BENCH_incr.json + BENCH_reflect.json schemas, allocs/op ratchet)"
go run ./scripts/checkbench "$bench_dir/BENCH_taint.json" "$bench_dir/BENCH_strings.json" "$bench_dir/BENCH_metrics.json" "$bench_dir/BENCH_query.json" "$bench_dir/BENCH_incr.json" "$bench_dir/BENCH_reflect.json"
rm -rf "$bench_dir"

echo "==> summary store smoke (round-trip + deliberately corrupted entries degrade to misses)"
go test -run 'TestWarmRunMatchesColdByteForByte|TestCorrupt' ./internal/summarystore/

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

echo "==> service soak smoke (bounded queue, fair completion, warm resubmission, drain; race-enabled)"
go test -race -run 'TestServiceSoak|TestServiceWarm' ./internal/service/

echo "CI OK"
