#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload fleet-2048 --seed 1 --seconds 20 --trace 0
      One run. The last stdout line is the result JSON:
      {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
  python3 perfbench/run.py --all [--seed N] [--seconds S]
      Every workload untraced; prints every end-to-end metric by name and
      unit and exits non-zero if any correctness gate failed.
  python3 perfbench/run.py --smoke
      A few cycles of every workload in both modes, twice: checks that every
      metric is printed, that the counts repeat, and that the codec metrics
      read zero on the simulated workloads.

The first call configures and builds the benchmark (library sources plus
the perfbench binary) into $CARGO_TARGET_DIR, default .bench_build; later calls
re-run the incremental build.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fleet-2048", "storm-128", "loopback-3", "paper-jester-500"]
SIM_WORKLOADS = ["fleet-2048", "storm-128", "paper-jester-500"]
# Seed-deterministic end-to-end counts the smoke check compares between two
# invocations. loopback-3's transport figures include flush-barrier rounds
# and acks whose number depends on thread timing, so only its paper counts
# and belief accuracy are compared.
EXACT_COUNTS = ["paper_msgs_per_cycle", "transport_msgs_per_cycle",
                "transport_bytes_per_cycle", "belief_accuracy"]
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(step))
            sys.exit(1)
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for the mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_once(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (result dict, stderr text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "%g" % seconds, "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--spans", os.path.join(build_dir(), "spans-%s.jsonl" % workload)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %ds" % (workload, RUN_TIMEOUT_S))
        sys.exit(1)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        log("perfbench: %s exited with %d" % (workload, proc.returncode))
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if (not isinstance(result, dict) or
            set(result) != {"correct", "attempted", "failed", "metrics"}):
        log("perfbench: %s printed no result line" % workload)
        sys.exit(1)
    names = expected_metrics(trace)
    if names is not None and sorted(result["metrics"]) != sorted(names):
        log("perfbench: %s metrics differ from BENCHMARK.json" % workload)
        sys.exit(1)
    return result, proc.stderr


def run_all(binary, seed, seconds):
    ok = True
    for workload in WORKLOADS:
        result, err = run_once(binary, workload, seed, seconds, False)
        print("%s  correct=%s attempted=%d failed=%d" % (
            workload, result["correct"], result["attempted"], result["failed"]))
        for name, metric in result["metrics"].items():
            print("  %-28s %14.6g %s" % (name, metric["value"], metric["unit"]))
        if not result["correct"] or result["failed"]:
            ok = False
            log(err)
    print("all gates passed" if ok else "GATE FAILURES (see stderr)")
    return 0 if ok else 1


def smoke(binary):
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            first, _ = run_once(binary, workload, 7, 1, trace, smoke=True)
            second, err = run_once(binary, workload, 7, 1, trace, smoke=True)
            tag = "%s trace=%d" % (workload, trace)
            known = len(problems)
            for result in (first, second):
                if not result["correct"]:
                    problems.append(tag + ": a correctness gate failed\n" + err)
            if trace and workload in SIM_WORKLOADS:
                for name, metric in first["metrics"].items():
                    if name.startswith("serialization.") and metric["value"] != 0:
                        problems.append("%s: %s is %g, expected 0" % (
                            tag, name, metric["value"]))
            if not trace:
                counts = (["paper_msgs_per_cycle", "belief_accuracy"]
                          if workload == "loopback-3" else EXACT_COUNTS)
                for name in counts:
                    a = first["metrics"][name]["value"]
                    b = second["metrics"][name]["value"]
                    if a != b:
                        problems.append("%s: %s differs between invocations "
                                        "(%r vs %r)" % (tag, name, a, b))
            print("smoke %-28s %s (%d metrics)" % (
                tag, "ok" if len(problems) == known else "FAILED",
                len(first["metrics"])))
    for problem in problems:
        log(problem)
    print("smoke passed" if not problems else "smoke FAILED")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (args.all or args.smoke or args.workload):
        parser.error("one of --workload, --all or --smoke is required")

    binary = build()
    if args.smoke:
        return smoke(binary)
    if args.all:
        return run_all(binary, args.seed, args.seconds)
    result, _ = run_once(binary, args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
