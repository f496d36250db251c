#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
pulls in the modis library from the parent tree) under .bench_build/,
then runs one workload. The program's output passes through unchanged;
its last line is the JSON result. Exits non-zero when the build fails,
an answer check fails, or the result does not carry exactly the metrics
BENCHMARK.json lists.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "modis_perfbench")
# Every run must end within 180 s; the build of the first run is extra.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
                  "modis_perfbench"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(step))
            return False
    return True


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def slo_ms(spec):
    """The max_qps_at_slo latency objective stated in a workload `why`."""
    for workload in spec["workloads"]:
        match = re.search(r"p99 <= (\d+(?:\.\d+)?) ms", workload["why"])
        if match:
            return match.group(1)
    raise SystemExit("perfbench: BENCHMARK.json states no p99 SLO")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    spec = benchmark_spec()
    if not build():
        return 3
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--slo-ms", slo_ms(spec)]
    # Own process group: on a timeout the whole tree (pool workers
    # included) is killed and reaped.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: run timed out")
        return 4
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    group = "per_layer" if args.trace == "1" else "end_to_end"
    wanted = {m["name"] for m in spec[group]}
    got = set(result.get("metrics", {}))
    if wanted != got:
        log("perfbench: metrics differ from BENCHMARK.json:",
            sorted(wanted ^ got))
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
