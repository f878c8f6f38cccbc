#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics repeat from run to run.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]
                                [--traced 1] [--seed-base N]

For each workload, runs perfbench/run.py --runs times in each of --sets
sets, every run on its own seed and for run_seconds from BENCHMARK.json
(the length the bounds apply to), and reports for every end-to-end metric:
each set's median, its spread (the distance between the first and third
quartile of statistics.quantiles(values, n=4), as a share of the median)
against the metric's bound in BENCHMARK.json, the second set's median drift
against the first, and each set's share of failed operations. --traced N
adds N traced runs per workload, keeps their per-layer metrics in the
report, and reports the tracing overhead: the traced runs' end-to-end
figures against the untraced median. Every result carries the host stamp
the runs printed. The report is also written as JSON to
.bench_out/steady-<time>.json. Exit status 1 when a spread or a drift
exceeds its bound, a run fails, or the failed shares of two sets differ.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        return None
    out = {"result": json.loads(lines[-1])}
    for line in lines[:-1]:
        tag, _, payload = line.partition(" ")
        if tag in ("host", "traced"):
            out[tag] = json.loads(payload)
    return out


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    delta = (second - first) if better == "lower" else (first - second)
    return delta / first if first else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])

    report = {"seconds": seconds, "workloads": {}}
    ok = True
    for workload in workloads:
        sets, host = [], None
        for s in range(args.sets):
            runs = []
            for r in range(args.runs):
                seed = args.seed_base + 1000 * s + r
                started = time.time()
                out = run_once(workload, seed, seconds, 0)
                if out is None:
                    print("%s seed %d: FAILED" % (workload, seed))
                    ok = False
                    continue
                host = out.get("host", host)
                runs.append(out["result"])
                print("%s set %d seed %d (%.0f s): %s" % (
                    workload, s + 1, seed, time.time() - started,
                    " ".join("%s=%.6g" % (k, v["value"]) for k, v in
                             out["result"]["metrics"].items())), flush=True)
            sets.append(runs)
        entry = {"host": host, "metrics": {}, "failed_share": []}
        for runs in sets:
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            entry["failed_share"].append(failed / attempted if attempted else None)
            ok = ok and all(r["correct"] for r in runs)
        if len(set(entry["failed_share"])) > 1:
            ok = False
        names = list(metrics)
        missing = sorted({n for runs in sets for r in runs for n in names
                          if n not in r["metrics"]})
        if missing:
            print("  runs lack manifest metrics: %s" % " ".join(missing))
            ok = False
            names = [n for n in names if n not in missing]
        for name in names:
            m = metrics[name]
            rows = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                if len(values) < 2:
                    continue
                sp, med = spread(values)
                rows.append({"median": med, "spread": sp})
            drift = (worse_by(rows[0]["median"], rows[1]["median"], m["better"])
                     if len(rows) > 1 else None)
            spread_ok = all(r["spread"] <= m["bound"] for r in rows)
            drift_ok = drift is None or drift <= m["bound"]
            ok = ok and spread_ok and drift_ok
            entry["metrics"][name] = {"bound": m["bound"], "sets": rows,
                                      "drift": drift}
            print("  %-20s bound %.2f  %s  drift %s%s" % (
                name, m["bound"],
                "  ".join("median %.6g spread %.3f" % (r["median"], r["spread"])
                          for r in rows),
                "n/a" if drift is None else "%+.3f" % drift,
                "" if spread_ok and drift_ok else "  <-- OUT OF BOUND"))
        print("  failed share per set: %s" % entry["failed_share"])

        if args.traced:
            untraced = {n: statistics.median(
                r["metrics"][n]["value"] for runs in sets for r in runs)
                for n in names}
            overhead = {n: [] for n in names}
            entry["per_layer"] = []
            for r in range(args.traced):
                out = run_once(workload, args.seed_base + 5000 + r, seconds, 1)
                if out is None or "traced" not in out:
                    print("%s traced run %d: FAILED" % (workload, r))
                    ok = False
                    continue
                entry["per_layer"].append(out["result"]["metrics"])
                for n in names:
                    if n in out["traced"] and n != "setup_s":
                        overhead[n].append(worse_by(
                            untraced[n], out["traced"][n]["value"],
                            metrics[n]["better"]))
            entry["tracing_overhead"] = {
                n: statistics.median(v) for n, v in overhead.items() if v}
            for n, v in entry["tracing_overhead"].items():
                print("  tracing overhead %-20s %+.3f" % (n, v))
        report["workloads"][workload] = entry

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out",
                        "steady-%d.json" % int(time.time()))
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
    print("report: %s" % path)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
