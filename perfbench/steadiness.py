#!/usr/bin/env python3
"""Checks that the benchmark repeats: two sets of runs of the same build.

Runs set A and set B interleaved (A B A B ...), one run of each per seed
and workload, and prints for each workload and end-to-end metric both
medians, both quartiles, the spread of each set (the distance between its
quartiles as a share of its median) and whether the sets agree: set B's
median is not worse than set A's by more than the metric's bound, and each
set's spread stays within the bound. Each run's host-speed probes (a fixed
CPU loop, and the CPU time the hypervisor gave to other guests during the
run; reported beside the metrics and never folded into them) are
summarised too.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py [--workloads processor,consent]
        [--seeds 1,2,...,10] [--seconds N] [--json out.json]

It exits 1 if any metric disagrees. Every run's result line is kept in the
--json file, so a README table can be made from it.
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
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or len(lines) < 2:
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    report = json.loads(lines[-2].split(" ", 1)[1])
    result = json.loads(lines[-1])
    return {"report": report, "result": result}


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json", help="write every run's result here")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    runs = {w: {"A": [], "B": []} for w in workloads}
    for i, seed in enumerate(seeds):
        for w in workloads:
            # Alternate which set runs first, so drift does not favour one.
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                runs[w][s].append(run_once(w, seed, args.seconds))
                r = runs[w][s][-1]["result"]
                print("%s set %s seed %d: correct=%s attempted=%d failed=%d" % (
                    w, s, seed, r["correct"], r["attempted"], r["failed"]),
                    file=sys.stderr, flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f)

    ok = True
    for w in workloads:
        print("\n## %s (%d seeds per set)" % (w, len(seeds)))
        print("| metric | A q1 | A median | A q3 | A spread | B q1 | B median "
              "| B q3 | B spread | bound | agree |")
        print("|---|---|---|---|---|---|---|---|---|---|---|")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            qa = quartiles([r["result"]["metrics"][name]["value"] for r in runs[w]["A"]])
            qb = quartiles([r["result"]["metrics"][name]["value"] for r in runs[w]["B"]])
            spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
            if m["better"] == "lower":
                worse = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            else:
                worse = (qa[1] - qb[1]) / qa[1] if qa[1] else 0.0
            agree = worse <= bound and max(spread_a, spread_b) <= bound
            ok &= agree
            print("| %s | %.4g | %.4g | %.4g | %.1f%% | %.4g | %.4g | %.4g | "
                  "%.1f%% | %.0f%% | %s |" % (
                      name, qa[0], qa[1], qa[2], 100 * spread_a, qb[0], qb[1],
                      qb[2], 100 * spread_b, 100 * bound,
                      "yes" if agree else "NO"))
        shares = set()
        for s in ("A", "B"):
            for r in runs[w][s]:
                res = r["result"]
                shares.add((res["failed"], res["attempted"]))
                ok &= bool(res["correct"])
        probe = [p for s in ("A", "B") for r in runs[w][s]
                 for p in r["report"]["host_probe_ms"]]
        steal = [r["report"]["steal_s"] for s in ("A", "B") for r in runs[w][s]]
        print("\nfailed/attempted pairs: %s; host probe (ms) q1/median/q3: "
              "%.1f / %.1f / %.1f; steal (s per run) median/max: %.2f / %.2f" % (
                  sorted(shares), *quartiles(probe), statistics.median(steal),
                  max(steal)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
