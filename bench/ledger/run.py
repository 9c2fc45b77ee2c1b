#!/usr/bin/env python3
"""Builds and runs the perf ledger (README.md in this directory).

  run.py --workload NAME --seed N --seconds S --trace 0|1
      Builds perf_ledger under .bench_build if needed, runs one workload in a
      child process and passes its output through; the last stdout line is
      the result JSON. Exits non-zero, printing no result, if the build or
      the child fails.
  run.py --workload all [--seed N] [--runs R] [--seconds S] [--out FILE]
      Runs every workload, each run in its own child process: R untraced
      runs (seeds N .. N+R-1) and one traced run per workload. A crashed
      child is recorded as a failed run and the other workloads still run.
      Writes FILE with the machine, build and every run's result.
  run.py --diff BASE CHANGE
      For every (workload, metric): each side's median and quartiles, the
      delta and a verdict (better / same / worse / unresolved) against the
      bounds in BENCHMARK.json. Exits 1 if any end-to-end row is worse.
  run.py --smoke [--bin PATH]
      Tiny scales and short runs of every workload, traced and untraced;
      asserts every metric of BENCHMARK.json is printed with its unit and
      every check passes.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BUILD, "ledger_out")
WORKLOADS = ["er_batch", "serve_embed", "serve_scan", "router_live"]
# failed / attempted may rise by this much (absolute) before a diff row is
# worse.
ERROR_RATE_BOUND = 0.001


def build():
    """Configures and builds perf_ledger; returns its path, or None."""
    log = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, **log).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    make = ["cmake", "--build", BUILD, "--target", "perf_ledger", "-j", jobs]
    if subprocess.run(make, **log).returncode != 0:
        return None
    return os.path.join(BUILD, "perf_ledger")


def exit_name(code):
    if code < 0:
        try:
            return signal.Signals(-code).name
        except ValueError:
            return "signal %d" % -code
    return "exit %d" % code


def child_command(binary, workload, seed, seconds, trace, smoke=False):
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--out-dir", OUT_DIR]
    return command + ["--smoke"] if smoke else command


def run_child(binary, workload, seed, seconds, trace, smoke=False):
    """One run in its own process; returns the run record."""
    proc = subprocess.run(
        child_command(binary, workload, seed, seconds, trace, smoke),
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "exit": "ok" if proc.returncode == 0 else exit_name(proc.returncode)}
    try:
        record["result"] = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        record["result"] = None
    if record["result"] is None:
        print("%s FAILED (%s)" % (workload, record["exit"]), flush=True)
        record["result"] = {"correct": False, "attempted": 1, "failed": 1,
                            "metrics": {}}
    else:
        for line in lines[:-1]:
            print(line, flush=True)
    return record


def environment(binary, args):
    env = json.loads(subprocess.run([binary, "--env"], stdout=subprocess.PIPE,
                                    text=True, check=True).stdout)
    env["cpu_model"] = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        env["git_sha"] = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        env["git_sha"] = "unknown"
    env.update(seed=args.seed, runs=args.runs, seconds=args.seconds)
    return env


def run_all(binary, args):
    runs = []
    overhead = {}
    for workload in WORKLOADS:
        untraced = [run_child(binary, workload, args.seed + i, args.seconds,
                              False) for i in range(args.runs)]
        traced = run_child(binary, workload, args.seed, args.seconds, True)
        runs += untraced + [traced]
        # Tracing overhead: traced vs untraced median latency of the unit of
        # work (a request, or an ER job for er_batch).
        base = [r["result"]["metrics"]["p50_ms"]["value"] for r in untraced
                if "p50_ms" in r["result"]["metrics"]]
        with_trace = traced["result"]["metrics"].get("load.p50_ms")
        if base and with_trace:
            overhead[workload] = 100.0 * (
                with_trace["value"] / statistics.median(base) - 1.0)
            print("%s trace.overhead_pct %.3g %%" % (workload,
                                                    overhead[workload]))
    result = {"env": environment(binary, args), "runs": runs,
              "trace_overhead_pct": overhead}
    with open(args.out, "w") as out:
        json.dump(result, out, indent=1)
    print("wrote %s (%d runs, %d failed)" % (
        args.out, len(runs), sum(r["exit"] != "ok" for r in runs)))
    return 0 if all(r["exit"] == "ok" and r["result"]["correct"]
                    for r in runs) else 1


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def samples(path):
    """(workload, metric) -> values: end-to-end metrics from untraced runs,
    per-layer metrics from traced runs, and error_rate from every run."""
    with open(path) as f:
        runs = json.load(f)["runs"]
    table = {}
    for run in runs:
        result = run["result"]
        rate = result["failed"] / max(1, result["attempted"])
        table.setdefault((run["workload"], "error_rate"), []).append(rate)
        for name, metric in result["metrics"].items():
            table.setdefault((run["workload"], name), []).append(metric["value"])
    return table


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, change, better, bound):
    """better / same / worse / unresolved, per the README's rule."""
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    scale = abs(bm) if bm else 1.0
    spread = max((b3 - b1) / scale, (c3 - c1) / (abs(cm) if cm else 1.0))
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (cm - bm) / scale  # > 0 means the change is worse
    if bound is None:
        return "info"
    all_better = (max(change) < min(base)) if better == "lower" else (
        min(change) > max(base))
    all_worse = (min(change) > max(base)) if better == "lower" else (
        max(change) < min(base))
    if spread > bound:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > spread and all_better:
        return "better"
    return "same"


def diff(base_path, change_path):
    spec = load_spec()
    kinds = {m["name"]: (m["unit"], m["better"], m["bound"])
             for m in spec["end_to_end"]}
    kinds.update({m["name"]: (m["unit"], m["better"], None)
                  for m in spec["per_layer"]})
    kinds["error_rate"] = ("ratio", "lower", None)
    base, change = samples(base_path), samples(change_path)
    print("%-12s %-28s %-8s %26s %26s %9s  %s" % (
        "workload", "metric", "unit", "base median [q1, q3]",
        "change median [q1, q3]", "delta", "verdict"))
    worse = False
    for key in sorted(set(base) | set(change)):
        workload, name = key
        unit, better, bound = kinds.get(name, ("?", "lower", None))
        if key not in base or key not in change:
            print("%-12s %-28s %-8s %s" % (workload, name, unit,
                                           "missing on one side"))
            continue
        b1, bm, b3 = quartiles(base[key])
        c1, cm, c3 = quartiles(change[key])
        delta = (cm - bm) / abs(bm) * 100 if bm else (0.0 if cm == bm else math.inf)
        if name == "error_rate":
            v = "worse" if cm - bm > ERROR_RATE_BOUND else "same"
        else:
            v = verdict(base[key], change[key], better, bound)
        worse = worse or v == "worse"
        print("%-12s %-28s %-8s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] "
              "%+8.2f%%  %s" % (workload, name, unit, bm, b1, b3, cm, c1, c3,
                                delta, v))
    return 1 if worse else 0


def smoke(binary):
    spec = load_spec()
    ok = True
    for workload in WORKLOADS:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            run = run_child(binary, workload, 41, 1.0, trace, smoke=True)
            result = run["result"]
            problems = []
            if run["exit"] != "ok":
                problems.append(run["exit"])
            elif sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("result keys %s" % sorted(result))
            if not result.get("correct") or result.get("failed") != 0:
                problems.append("checks failed")
            metrics = result.get("metrics", {})
            if sorted(metrics) != sorted(m["name"] for m in expected):
                problems.append("metric names differ from BENCHMARK.json")
            for m in expected:
                got = metrics.get(m["name"], {})
                if got.get("unit") != m["unit"] or not math.isfinite(
                        got.get("value", math.nan)):
                    problems.append("%s: %s" % (m["name"], got))
                elif trace == 0 and got["value"] <= 0:
                    problems.append("%s is not positive" % m["name"])
            print("smoke %s trace=%d: %s" % (
                workload, trace, "; ".join(problems) or "ok"), flush=True)
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "run.json"))
    parser.add_argument("--diff", nargs=2, metavar=("BASE", "CHANGE"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--bin", help="use this perf_ledger instead of building")
    args = parser.parse_args()

    if args.diff:
        return diff(*args.diff)
    if not args.smoke and args.workload not in WORKLOADS + ["all"]:
        parser.error("--workload must be one of %s or all" % ", ".join(WORKLOADS))
    binary = args.bin or build()
    if binary is None:
        print("perf_ledger: build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.smoke:
        return smoke(binary)
    if args.workload == "all":
        return run_all(binary, args)
    code = subprocess.run(child_command(binary, args.workload, args.seed,
                                        args.seconds, args.trace)).returncode
    if code != 0:
        print("perf_ledger: %s %s" % (args.workload, exit_name(code)),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
