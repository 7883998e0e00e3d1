#!/usr/bin/env python3
"""Self-checks of the ward-serving benchmark. Run from the repository root.

  python3 wardbench/selfcheck.py spread [--workloads W ...] [--seeds N] [--fixed-seed K] [--seconds S]
      Runs each workload N times, once per seed 1..N (or N times at seed K),
      and prints, per end-to-end metric, the median and the spread
      (interquartile range over median, statistics.quantiles(n=4)) against
      the metric's bound in BENCHMARK.json, and the worst spread / bound
      with and without setup_s (the benchmark contract gates the median of
      setup_s, not its spread). Results are grouped by build/host
      fingerprint; different fingerprints are shown side by side, never
      pooled.

  python3 wardbench/selfcheck.py planted [--seeds N] [--seconds S]
      Planted-slowdown check through public extension points only:
        * paper-ward: a decorator Workload that busy-waits BUSY_SHARE of the
          measured worker time per window (trace.worker_us_per_window) in
          every seizure extract call must worsen windows_per_cpu_s by more
          than its bound;
        * telemetry-open: a sink that busy-waits SINK_DELAY_US per batch must
          worsen windows_per_cpu_s by more than its bound;
        * a no-op decorator must stay within both bounds.
      Each side is the median over seeds 1..N, the variants run interleaved
      per seed. Exits 1 if any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Planted slowdowns: a busy-wait of this share of the worker time per window
# in each seizure extract call (paper-ward), and per delivered batch in the
# sink (telemetry-open).
BUSY_SHARE = 0.6
SINK_DELAY_US = 200.0


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s" % " ".join(cmd))
    fingerprint = next((l.split(": ", 1)[1] for l in lines if l.startswith("fingerprint: ")), "{}")
    fp = json.loads(fingerprint)
    fp.pop("seed", None)
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("oracle check failed: %s seed %d" % (workload, seed))
    return json.dumps(fp, sort_keys=True), {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def cmd_spread(args):
    spec = bench_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = [args.fixed_seed] * args.seeds if args.fixed_seed is not None else range(1, args.seeds + 1)
    worst = worst_all = 0.0
    for workload in workloads:
        groups = {}
        for seed in seeds:
            fp, metrics = run(workload, seed, seconds)
            groups.setdefault(fp, []).append(metrics)
        for fp, runs in groups.items():
            print("%s (%d runs) fingerprint %s" % (workload, len(runs), fp))
            for name, bound in bounds.items():
                values = [r[name] for r in runs]
                if len(values) < 2:
                    print("  %-26s %14.6g  (one run)" % (name, values[0]))
                    continue
                med, s = spread(values)
                worst_all = max(worst_all, s / bound)
                if name != "setup_s":
                    worst = max(worst, s / bound)
                print("  %-26s median %14.6g  spread %6.3f  bound %.2f  %-6s  runs %s" %
                      (name, med, s, bound, "ok" if s <= bound / 3 else ("WITHIN" if s <= bound else "OVER"),
                       " ".join("%.4g" % v for v in values)))
    print("worst spread / bound: %.2f; without setup_s (its median is gated, not its spread): %.2f" %
          (worst_all, worst))
    return 0


def cmd_planted(args):
    spec = bench_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    seeds = range(1, args.seeds + 1)

    _, traced = run("paper-ward", 1, seconds, trace=1)
    worker_us = traced["trace.worker_us_per_window"]
    features_us = traced["features.seizure_us_per_window"]
    busy_us = BUSY_SHARE * worker_us
    # A plant of 30% of the feature time is only that share of the worker
    # time, so it moves windows_per_cpu_s by about share / (1 + share).
    share = 0.3 * features_us / worker_us
    print("worker %.3f us/window, features.seizure %.3f us/window: 30%% of the features is %.1f%% of "
          "the worker time (moves windows_per_cpu_s by about %.1f%%)" %
          (worker_us, features_us, 100 * share, 100 * share / (1 + share)))
    print("planted busy-wait: %.2f x worker time = %.3f us per window" % (BUSY_SHARE, busy_us))

    def medians_of(workload, metric, variants):
        # Interleaved per seed, so drift of the host's speed hits every variant alike.
        values = [[] for _ in variants]
        for s in seeds:
            for v, extra in enumerate(variants):
                values[v].append(run(workload, s, seconds, extra=extra)[1][metric])
        return [statistics.median(v) for v in values]

    failures = 0

    def check(label, base, planted, bound, higher_better, expect_regression):
        change = (base - planted) / base if higher_better else (planted - base) / base
        regressed = change > bound
        ok = regressed == expect_regression
        print("  %-44s base %12.6g  planted %12.6g  worse by %+7.3f (bound %.2f): %s" %
              (label, base, planted, change, bound, "PASS" if ok else "FAIL"))
        return 0 if ok else 1

    metric = "windows_per_cpu_s"
    base, noop, busy = medians_of("paper-ward", metric, [
        [], ["--plant", "noop"], ["--plant", "seizure-busy", "--plant-us", str(busy_us)]])
    print("paper-ward %s (median of %d seeds):" % (metric, len(seeds)))
    failures += check("no-op decorator stays within the bound", base, noop, bounds[metric], True, False)
    failures += check("%.2f x worker busy-wait exceeds the bound" % BUSY_SHARE, base, busy,
                      bounds[metric], True, True)

    base, noop, delay = medians_of("telemetry-open", metric, [
        [], ["--plant", "noop"], ["--plant", "sink-delay", "--plant-us", str(SINK_DELAY_US)]])
    print("telemetry-open %s (median of %d seeds):" % (metric, len(seeds)))
    failures += check("no-op decorator stays within the bound", base, noop, bounds[metric], True, False)
    failures += check("%g us sink delay exceeds the bound" % SINK_DELAY_US, base, delay, bounds[metric],
                      True, True)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--fixed-seed", type=int)
    p.add_argument("--seconds", type=float)
    p = sub.add_parser("planted")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--seconds", type=float)
    args = parser.parse_args()
    return cmd_spread(args) if args.command == "spread" else cmd_planted(args)


if __name__ == "__main__":
    sys.exit(main())
