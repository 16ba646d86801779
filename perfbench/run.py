#!/usr/bin/env python3
"""Build perfbench from source and run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--mutate dally-ignores-wrap|ebda-skips-theorem1]

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) built
against the repository's crates by path, into $CARGO_TARGET_DIR
(default .bench_build). Its human-readable report goes to standard output,
followed by one JSON line with the keys correct, attempted, failed and
metrics. The metric names are checked against BENCHMARK.json. Exits non-zero,
printing no result, when the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")
    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary, *argv, "--work-dir", os.path.join(target, "perfbench-work")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines:
        fail(f"run failed (exit {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last output line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    trace = "--trace" in argv[:-1] and argv[argv.index("--trace") + 1] == "1"
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ want)}")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
