#!/usr/bin/env python3
"""Builds and runs the end-to-end served benchmark.

One run (the form BENCHMARK.json names):

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

builds bench/e2e (CMakeLists.txt) into $CARGO_TARGET_DIR/e2e, or
.bench_build/e2e when that is unset, runs one workload and passes the
program's output through: one JSON line per metric, then the summary line
{"correct", "attempted", "failed", "metrics"}. It exits non-zero, without a
summary, when the build or the run fails.

Repeat mode runs every workload several times, one seed per run, and prints
the median and quartiles of each metric:

    python3 bench/e2e/run.py repeat --runs 5 [--trace 0|1] [--record FILE --label L]

Compare mode runs alternating pairs of two checkouts (each a repository
root) and applies the gain and regression rules with the bounds in
BENCHMARK.json, one row per workload and metric:

    python3 bench/e2e/run.py compare --parent DIR --change DIR [--pairs 10]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2e")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target", "e2e_bench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out, "e2e_bench")


def run_once(exe, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, metric lines, summary or None)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, workload + ".jsonl")]
    # The library reads CCIDX_* variables (backend, SIMD level, prefetch);
    # a run must not inherit them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CCIDX_")}
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          env=env, text=True, timeout=RUN_TIMEOUT_S)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    summary = lines[-1] if lines and "metrics" in lines[-1] else None
    return proc.returncode, [l for l in lines if "metric" in l], summary


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """(median, q1, q3), quartiles as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def single(args):
    try:
        exe = build()
        code, metrics, summary = run_once(exe, args.workload, args.seed,
                                          args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(str(e))
        return 1
    if summary is None:
        log("run produced no summary (exit code %d)" % code)
        return code or 1
    for m in metrics:
        print(json.dumps(m))
    print(json.dumps(summary), flush=True)
    return code


def workload_names(spec, chosen):
    names = [w["name"] for w in spec["workloads"]]
    if not chosen:
        return names
    picked = chosen.split(",")
    unknown = [n for n in picked if n not in names]
    if unknown:
        raise SystemExit("unknown workloads: " + ", ".join(unknown))
    return picked


def repeat(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    exe = build()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for workload in workload_names(spec, args.workloads):
        values = {}
        hardware = dispatch = ""
        for i in range(args.runs):
            seed = args.first_seed + i
            t0 = time.time()
            code, metrics, summary = run_once(exe, workload, seed, seconds,
                                              args.trace)
            if summary is None or code != 0 or not summary["correct"]:
                raise SystemExit("%s seed %d failed (exit %d)" %
                                 (workload, seed, code))
            log("%s seed %d: %.1f s" % (workload, seed, time.time() - t0))
            for name, m in summary["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if metrics:
                hardware, dispatch = metrics[0]["hardware"], metrics[0]["dispatch"]
        for name, vals in values.items():
            med, q1, q3 = spread(vals)
            rows.append({"workload": workload, "metric": name,
                         "unit": units.get(name, ""), "median": med,
                         "q1": q1, "q3": q3, "runs": len(vals),
                         "seconds": seconds, "trace": args.trace,
                         "hardware": hardware, "dispatch": dispatch})
    print("%-10s %-34s %14s %14s %14s %8s" %
          ("workload", "metric", "median", "q1", "q3", "iqr/med"))
    for r in rows:
        iqr = (r["q3"] - r["q1"]) / r["median"] if r["median"] else 0.0
        print("%-10s %-34s %14.6g %14.6g %14.6g %8.3f" %
              (r["workload"], r["metric"], r["median"], r["q1"], r["q3"], iqr))
    if args.record:
        with open(args.record, "a") as f:
            for r in rows:
                f.write(json.dumps(dict(commit=args.label, **r)) + "\n")
    return 0


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def compare(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    workloads = workload_names(spec, args.workloads)
    # Each checkout builds into its own default build directory.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    results = {(side, w): [] for side in roots for w in workloads}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                cmd = [sys.executable, "bench/e2e/run.py", "--workload", w,
                       "--seed", str(args.first_seed + pair),
                       "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=roots[side], env=env,
                                      stdout=subprocess.PIPE, text=True)
                last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
                summary = json.loads(last[0])
                if proc.returncode != 0 or not summary.get("correct"):
                    raise SystemExit("%s %s pair %d failed" % (side, w, pair))
                results[(side, w)].append(summary)
                log("pair %d %s %s done" % (pair, w, side))
    print("%-10s %-20s %24s %24s %7s  %s" %
          ("workload", "metric", "parent med [q1,q3]", "change med [q1,q3]",
           "wins", "verdict"))
    for w in workloads:
        # A gain does not count when the change fails more operations.
        failed = {side: sum(s["failed"] for s in results[(side, w)])
                  for side in roots}
        for m in spec["end_to_end"]:
            name, direction, bound = m["name"], m["better"], m["bound"]
            p = [s["metrics"][name]["value"] for s in results[("parent", w)]]
            c = [s["metrics"][name]["value"] for s in results[("change", w)]]
            pm, pq1, pq3 = spread(p)
            cm, cq1, cq3 = spread(c)
            wins = sum(better(ci, pi, direction) for pi, ci in zip(p, c))
            if pm == 0:
                verdict = "unresolved (parent median is 0)"
            elif (len(p) >= 10 and wins >= 0.9 * len(p)
                    and abs(cm - pm) > pq3 - pq1):
                verdict = "gain" if failed["change"] <= failed["parent"] else (
                    "no gain (failed %d > parent %d)" %
                    (failed["change"], failed["parent"]))
            elif (pq3 - pq1) / pm > bound and not all(
                    better(ci, pi, direction) for ci in c for pi in p):
                verdict = "unresolved (spread %.3f > bound %.3f)" % (
                    (pq3 - pq1) / pm, bound)
            elif (cm - pm if direction == "lower" else pm - cm) / pm > bound:
                verdict = "regression (%.3f > bound %.3f)" % (
                    abs(cm - pm) / pm, bound)
            else:
                verdict = "no regression"
            print("%-10s %-20s %10.4g [%5.4g,%5.4g] %10.4g [%5.4g,%5.4g] %3d/%-3d  %s" %
                  (w, name, pm, pq1, pq3, cm, cq1, cq3, wins, len(p), verdict))
    return 0


def main(argv):
    if argv and argv[0] in ("repeat", "compare"):
        p = argparse.ArgumentParser(prog="run.py " + argv[0])
        p.add_argument("--workloads", help="comma-separated subset")
        p.add_argument("--seconds", type=int, help="default: run_seconds")
        p.add_argument("--first-seed", type=int, default=1)
        if argv[0] == "repeat":
            p.add_argument("--runs", type=int, default=5)
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
            p.add_argument("--record", help="append summary rows to FILE")
            p.add_argument("--label", default="", help="commit label of rows")
            return repeat(p.parse_args(argv[1:]))
        p.add_argument("--parent", required=True)
        p.add_argument("--change", required=True)
        p.add_argument("--pairs", type=int, default=10)
        return compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return single(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
