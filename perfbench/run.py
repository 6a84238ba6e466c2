#!/usr/bin/env python3
"""Build and run the repository benchmark.

From the repository root:

    python3 perfbench/run.py --workload play --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first form builds the Go module in perfbench/ (which imports the
analyzer from the repository through a replace directive) and runs one
workload; the last line of standard output is the result object. All
build products, caches and run files stay inside the checkout: the build
goes to $CARGO_TARGET_DIR (default .bench_build), the run files to
.perfbench. --selftest runs every workload of BENCHMARK.json for one
corpus pass, traced and untraced, and checks that each emits exactly the
metrics BENCHMARK.json names, with their units, and passes its
correctness and fidelity checks. README.md explains the benchmark.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT = 170  # seconds; a run must end within 180


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Builds the benchmark binary, returning its path, or None."""
    out = build_dir()
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "go-cache"),
        "GOPATH": os.path.join(out, "go-path"),
        "GOMODCACHE": os.path.join(out, "go-path", "pkg", "mod"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "TMPDIR": os.path.join(out, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench", "perfbench")
    try:
        done = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."],
                              cwd=HERE, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return binary


def commit():
    """The checkout's commit when it is a git work tree, else "unknown"."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = done.stdout.strip()
    return rev if done.returncode == 0 and rev else "unknown"


def run(binary, args, capture=False):
    cmd = [binary, "--commit", commit(), *args]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT}s", file=sys.stderr)
        return None


def selftest(binary):
    """Runs each workload once, traced and untraced, against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{w['name']} trace={trace}"
            done = run(binary, ["--workload", w["name"], "--seed", "1", "--seconds", "0",
                                "--setups", "1", "--trace", str(trace)], capture=True)
            if done is None or done.returncode != 0:
                problems.append(f"{name}: run failed")
                continue
            lines = done.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            prov = json.loads(lines[-2]).get("provenance", {})
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(res)}")
                continue
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{name}: correct={res['correct']} failed={res['failed']} "
                                f"attempted={res['attempted']} errors={prov.get('errors')}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if want != got:
                problems.append(f"{name}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
            bad = [k for k, v in res["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{name}: non-finite values {bad}")
            for key in ("gomaxprocs", "num_cpu", "go_version", "commit", "seed", "corpus_seed", "samples"):
                if key not in prov:
                    problems.append(f"{name}: provenance lacks {key}")
            print(f"selftest {name}: attempted {res['attempted']}, failed {res['failed']}, "
                  f"{len(got)} metrics", file=sys.stderr)
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print(json.dumps({"selftest": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv):
    binary = build()
    if binary is None:
        return 1
    if argv == ["--selftest"]:
        return selftest(binary)
    done = run(binary, argv)
    return 1 if done is None else done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
