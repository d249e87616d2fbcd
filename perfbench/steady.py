#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--runs 10] [--sets 2]
        [--workloads fig6-serial,fuzz-cold] [--out runs.jsonl]
    python3 perfbench/steady.py --from runs.jsonl

Runs every workload --runs times per set (untraced, one process per
run, a fresh seed for every run, workloads interleaved so that host
drift reaches all of them alike), then prints for each end-to-end
metric each set's median and quartiles, the spread (interquartile
distance over the median) and how far each later set's median moved
from the first set's, in the worse direction.

A metric passes when every set's spread is within its BENCHMARK.json
bound and no later set's median is worse than the first's by more than
the bound.  "steady"
marks spreads under a third of the bound, the margin to aim for.
Exits 0 only when every metric of every workload passes and no run
reported a failed operation.
"""

import argparse
import json
import os
import statistics
import sys

import run as bench


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def worse_shift(first, later, better):
    """How much worse @p later's median is than @p first's, as a share."""
    shift = (statistics.median(later) - statistics.median(first)) \
        / statistics.median(first)
    return shift if better == "lower" else -shift


def judge(sets, metric):
    """Verdict for one metric over its per-set value lists."""
    bound = metric["bound"]
    spreads = [spread(values) for values in sets]
    shifts = [worse_shift(sets[0], values, metric["better"])
              for values in sets[1:]]
    return {
        "spreads": spreads,
        "shifts": shifts,
        "pass": all(s <= bound for s in spreads + shifts),
        "steady": all(s < bound / 3 for s in spreads),
    }


def collect(args, spec):
    binary = bench.build()
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    records = []
    out = open(args.out, "a") if args.out else None
    for set_index in range(args.sets):
        for run_index in range(args.runs):
            seed = 1 + set_index * args.runs + run_index
            for workload in workloads:
                code, lines = bench.run_workload(binary, workload, seed,
                                                 seconds, 0)
                if code != 0 or not lines:
                    sys.exit("steady: %s seed %d exited with %d"
                             % (workload, seed, code))
                result = bench.check_result(lines[-1], 0)
                record = {"set": set_index, "workload": workload,
                          "seed": seed, "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": {k: v["value"] for k, v
                                      in result["metrics"].items()},
                          "info": json.loads(lines[-2])["info"]}
                records.append(record)
                if out:
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                print("set %d seed %3d %-16s wall_s %.4f failed %d/%d"
                      % (set_index, seed, workload,
                         record["metrics"]["wall_s"], record["failed"],
                         record["attempted"]), flush=True)
    return records


def report(records, spec):
    ok = True
    for record in records:
        if record["failed"]:
            ok = False
            print("FAILED OPERATIONS: %s seed %d: %d of %d"
                  % (record["workload"], record["seed"],
                     record["failed"], record["attempted"]))
    workloads = list(dict.fromkeys(r["workload"] for r in records))
    for workload in workloads:
        runs = [r for r in records if r["workload"] == workload]
        set_ids = sorted({r["set"] for r in runs})
        print("\n%s (%s runs per set)"
              % (workload, "/".join(str(sum(r["set"] == s for r in runs))
                                    for s in set_ids)))
        for metric in spec["end_to_end"]:
            sets = [[r["metrics"][metric["name"]] for r in runs
                     if r["set"] == s] for s in set_ids]
            if any(len(values) < 2 for values in sets):
                print("  %-14s needs at least 2 runs per set"
                      % metric["name"])
                ok = False
                continue
            verdict = judge(sets, metric)
            ok &= verdict["pass"]
            cells = []
            for values, sp in zip(sets, verdict["spreads"]):
                q1, q2, q3 = quartiles(values)
                cells.append("med %.5g [%.5g, %.5g] spread %5.1f%%"
                             % (q2, q1, q3, 100 * sp))
            shifts = " ".join("%+5.1f%%" % (100 * s)
                              for s in verdict["shifts"])
            print("  %-14s %-6s %s | worse-shift %s | bound %g%s"
                  % (metric["name"], metric["unit"], " | ".join(cells),
                     shifts or "n/a", 100 * metric["bound"],
                     "%  " + ("PASS" if verdict["pass"] else "FAIL")
                     + (" steady" if verdict["steady"] else "")))
    print("\nverdict: %s" % ("PASS" if ok else "FAIL"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="append raw runs (JSON lines)")
    parser.add_argument("--from", dest="source",
                        help="analyse runs recorded with --out")
    args = parser.parse_args()
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.source:
        with open(args.source) as f:
            records = [json.loads(line) for line in f if line.strip()]
    else:
        records = collect(args, spec)
    sys.exit(0 if report(records, spec) else 1)


if __name__ == "__main__":
    main()
