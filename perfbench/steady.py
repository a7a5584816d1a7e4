#!/usr/bin/env python3
"""Steadiness check of the pipeline benchmark.

Runs each workload k times with seeds 1, 2, ..., k, prints every
metric's median and quartiles, and flags each end-to-end metric whose
spread — the distance between the first and third quartile as a share of
the median — exceeds its bound in BENCHMARK.json. It also requires every
run to be correct and the share of failed operations to be the same in
every run. Run from the repository root:

    python3 perfbench/steady.py --runs 10 --workloads ingest600,fed5k

Exit code 0 when every run is correct and every spread is within its
bound, 1 otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("%s seed %d printed nothing (exit %d)" % (workload, seed, out.returncode))
    return out.returncode, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values, shares = {}, set()
        for seed in range(1, args.runs + 1):
            code, res = run_once(workload, seed, args.seconds)
            if code != 0 or not res["correct"]:
                print("%s seed %d: exit %d, correct %s" % (workload, seed, code, res["correct"]))
                ok = False
            shares.add((res["failed"], res["attempted"]) if res["failed"] else 0)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d done" % (workload, seed), file=sys.stderr)
        fail_shares = {s if s == 0 else s[0] / s[1] for s in shares}
        if len(fail_shares) > 1:
            print("%s: the share of failed operations differs between runs: %s" % (workload, sorted(fail_shares)))
            ok = False
        print("%s (%d runs)" % (workload, args.runs))
        print("  %-30s %12s %12s %12s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
        for name in sorted(values):
            xs = values[name]
            q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  above a third of the bound"
            print("  %-30s %12.6g %12.6g %12.6g %8.4f %6s%s" % (
                name, q1, med, q3, spread, "-" if bound is None else bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
