#!/usr/bin/env python3
"""Builds the netfm benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_open --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/ under the repository root; later calls only check that
the build is current. The workload binary runs with a cleaned environment
(no NETFM_* overrides) and a fixed thread-pool size, writes its files under
.bench_out/, and prints its result as the last line of stdout. Build and
progress logs go to stderr. The exit code is the binary's: non-zero when a
correctness check failed or the run could not complete, and then no result
line is printed.

The result line holds exactly the metrics BENCHMARK.json names: its
end-to-end metrics with --trace 0, its per-layer metrics with --trace 1.
Each workload exercises only some layers, so a traced run also runs every
other workload, traced, for FILL_SECONDS on the same seed, and takes
from them the per-layer metrics the named workload does not produce; stderr
says which workload each came from. attempted and failed are the named
workload's. A manifest metric that no run produced is an error.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "netfm_perfbench")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 175
# Length of the traced runs of the other workloads, which fill in the
# per-layer metrics the named one does not produce: long enough for
# serve_open's open-loop phase to fill its 1.4 s latency windows.
FILL_SECONDS = 5


# Thread-pool lanes (NETFM_THREADS) per workload; each leaves room in a
# 4-core host for the load generator and the reply collector. serve_open
# runs one: on the 4-vCPU reference host a second lane moved its capacity
# by less than the run-to-run spread and made its open-loop latencies
# spread several times as wide, competing with the spinning generator.
POOL_THREADS = {"serve_open": 1, "serve_http": 2, "capture_pretrain": 2}


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no netfm sources at %s; nothing to build"
                 % os.path.join(ROOT, "src"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "netfm_perfbench", "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(step))


def run_binary(workload, seed, seconds, trace, env, deadline):
    """Runs one workload; returns its stdout lines and its result object."""
    env = dict(env, NETFM_THREADS=str(POOL_THREADS[workload]))
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out-dir", OUT_DIR]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as expired:
        sys.stderr.write(expired.stdout or "")
        sys.exit("perfbench: %s did not finish in %d s"
                 % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.exit(done.returncode or 1)
    return lines, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOL_THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(MANIFEST) as f:
        manifest = json.load(f)
    wanted = [m["name"] for m in
              manifest["per_layer" if args.trace else "end_to_end"]]

    env = {k: v for k, v in os.environ.items() if not k.startswith("NETFM_")}
    env["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    build(env)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    lines, result = run_binary(args.workload, args.seed, args.seconds,
                               args.trace, env, deadline)
    found = dict(result["metrics"])
    if args.trace:
        for other in POOL_THREADS:
            if other == args.workload:
                continue
            _, filler = run_binary(other, args.seed, FILL_SECONDS, 1, env,
                                   deadline)
            taken = [n for n in wanted
                     if n not in found and n in filler["metrics"]]
            for name in taken:
                found[name] = filler["metrics"][name]
            if taken:
                sys.stderr.write("perfbench: from a %d s traced %s run: %s\n"
                                 % (FILL_SECONDS, other, " ".join(taken)))
    missing = [n for n in wanted if n not in found]
    if missing:
        sys.exit("perfbench: no run produced %s" % " ".join(missing))
    result["metrics"] = {n: found[n] for n in wanted}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
