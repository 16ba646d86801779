#!/usr/bin/env python3
"""Checks on the benchmark itself, run from the root of a checkout.

    python3 perfbench/check.py spread WORKLOAD [--runs 10] [--seed0 1] [--out FILE]
        Runs the workload once per seed and prints, for every end-to-end
        metric (setup_s too), the median and the quartile spread
        (Q3 - Q1) / median next to a third of the metric's bound; a wider
        spread fails the check. --out keeps the raw values.
    python3 perfbench/check.py compare FIRST SECOND
        Compares two --out files: each median of SECOND may be worse than
        FIRST's by at most the metric's bound.
    python3 perfbench/check.py probe
        The must-fail probe: verify-audit and campaign under each public
        Mutation must report failed ops (fail_ratio > 0).
    python3 perfbench/check.py counters WORKLOAD [--seed N]
        Two traced runs must print identical prof counters and counts.
"""

import argparse
import json
import statistics
import subprocess
import sys
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def bench(workload, seed, trace=0, extra=()):
    """Runs one benchmark invocation; returns (stdout lines, result)."""
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {out.returncode}")
    lines = out.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


def spread(args):
    values = {m["name"]: [] for m in SPEC["end_to_end"]}
    failed = 0
    for seed in range(args.seed0, args.seed0 + args.runs):
        _, result = bench(args.workload, seed)
        failed += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
    ok = failed == 0
    for m in SPEC["end_to_end"]:
        xs = values[m["name"]]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        rel = (q3 - q1) / med
        gate = m["bound"] / 3
        verdict = "ok" if rel < gate else "WIDE"
        ok &= verdict != "WIDE"
        print(f"{args.workload:<13} {m['name']:<16} median {med:<14.6g} "
              f"spread {rel:.4f}  bound/3 {gate:.4f}  {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "values": values}, f)
    return ok


def compare(args):
    a, b = (json.load(open(p)) for p in (args.first, args.second))
    ok = True
    for m in SPEC["end_to_end"]:
        ma = statistics.median(a["values"][m["name"]])
        mb = statistics.median(b["values"][m["name"]])
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        good = worse <= m["bound"]
        ok &= good
        print(f"{a['workload']:<13} {m['name']:<16} {ma:<14.6g} -> {mb:<14.6g} "
              f"worse by {worse:+.4f} (bound {m['bound']}) {'ok' if good else 'REGRESSED'}")
    return ok


def probe(_args):
    """Every pairing must trip: the torus points and wrapped corpus entries
    catch dally-ignores-wrap, verify-audit's merged-mesh2-4 and the
    corpus's merged-partitions entries catch ebda-skips-theorem1."""
    ok = True
    for workload in ("verify-audit", "campaign"):
        for mutation in ("dally-ignores-wrap", "ebda-skips-theorem1"):
            _, r = bench(workload, 1, extra=("--mutate", mutation))
            tripped = r["failed"] > 0 and not r["correct"]
            ok &= tripped
            print(f"{workload:<13} {mutation:<20} fail_ratio {r['failed'] / r['attempted']:.4f} "
                  f"({r['failed']}/{r['attempted']}) {'tripped' if tripped else 'CLEAN'}")
    return ok


def counters(args):
    runs = []
    for _ in range(2):
        lines, result = bench(args.workload, args.seed, trace=1)
        block = [l for l in lines if l.startswith("  ") and "=" in l]
        counts = {n: v["value"] for n, v in result["metrics"].items()
                  if v["unit"] in ("count", "bytes") and not n.startswith("trace.")}
        runs.append((block, counts))
    same = runs[0] == runs[1]
    print(f"{args.workload}: {len(runs[0][0])} prof counters, {len(runs[0][1])} counts, "
          f"{'identical' if same else 'DIFFERENT'} across two traced runs")
    return same


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("workload")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--seed0", type=int, default=1)
    s.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    sub.add_parser("probe")
    k = sub.add_parser("counters")
    k.add_argument("workload")
    k.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    ok = {"spread": spread, "compare": compare, "probe": probe, "counters": counters}[args.cmd](args)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
