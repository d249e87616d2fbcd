#!/usr/bin/env python3
"""Build the simulator's Release benchmark binary and run one workload.

Contract mode (one workload, one process):

    python3 perfbench/run.py --workload fig6-serial --seed 3 \\
        --seconds 20 --trace 0

builds perfbench/ (Release, probes and checked tables off) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload, forwards its output and ends with one JSON line holding
exactly the keys correct, attempted, failed and metrics.  --trace 0
reports BENCHMARK.json's end_to_end metrics, --trace 1 its per_layer
metrics (and writes the spans as Chrome trace-event JSON beside the
build).

Without --workload it runs every workload, each in its own process,
and prints every end-to-end metric with its unit.  --regen-reference
rewrites perfbench/reference/ from this tree at the default seed.

Run from the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build; returns the binary's path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=log,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                code = str(err)
            if code != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                sys.exit("perfbench: build failed (%s): %s"
                         % (code, " ".join(step)))
    return os.path.join(out, "ibp_perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, trace):
    """Validate the final line against the output contract."""
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        raise ValueError("result keys %s" % sorted(result))
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError("%s is not a whole number" % key)
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared_metrics(trace):
        raise ValueError("metrics differ from BENCHMARK.json")
    return result


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout lines)."""
    trace_out = os.path.join(build_dir(), "trace-%s-seed%d.json"
                             % (workload, seed))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--refdir", os.path.join(HERE, "reference"),
           "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s"
                 % (workload, RUN_TIMEOUT_S))
    return proc.returncode, proc.stdout.splitlines()


def workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    if args.regen_reference:
        sys.exit(subprocess.run(
            [binary, "--write-reference", os.path.join(HERE, "reference")],
            cwd=ROOT).returncode)

    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
    workloads = [args.workload] if args.workload else workload_names()
    status = 0
    for workload in workloads:
        code, lines = run_workload(binary, workload, args.seed, seconds,
                                   args.trace)
        if code != 0 or not lines:
            sys.exit("perfbench: %s exited with %d" % (workload, code))
        try:
            result = check_result(lines[-1], args.trace)
        except (ValueError, KeyError, TypeError) as err:
            sys.exit("perfbench: %s: malformed result (%s)"
                     % (workload, err))
        if args.workload:
            print("\n".join(lines))
            continue
        print("%s  (%d of %d operations failed)"
              % (workload, result["failed"], result["attempted"]))
        for line in lines[:-1]:
            if line.startswith('{"provenance"'):
                info = json.loads(line)["info"]
                if "paper_error_pp" in info:
                    print("  %-16s %14.6g pp" % ("paper_error_pp",
                                                 info["paper_error_pp"]))
        for name, metric in result["metrics"].items():
            print("  %-16s %14.6g %s" % (name, metric["value"],
                                         metric["unit"]))
        status |= 0 if result["correct"] else 1
    sys.exit(status)


if __name__ == "__main__":
    main()
