#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload osu_figs --seed 1 --seconds 30 --trace 0

The driver is compiled with CMake into `$CARGO_TARGET_DIR/perfbench`
(default `.bench_build/perfbench`) on first use; later runs only re-check
that build. The last line of stdout is the JSON result. Before it, this
script prints whether the workload's simulated-output digest matches the
one recorded in perfbench/baseline.json; a mismatch is reported, not
counted as a failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    cmds = [["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in cmds:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    ap.add_argument("--minimal", action="store_true",
                    help="tiny point set, one pass (self-check only)")
    a = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(os.path.join(os.path.abspath(target), "perfbench"))
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace] + (["--minimal"] if a.minimal else [])
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver timed out")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        sys.exit("perfbench: driver failed with code %d" % done.returncode)

    for line in lines[:-1]:
        print(line)
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
    recorded = None
    baseline = os.path.join(HERE, "baseline.json")
    if os.path.exists(baseline):
        with open(baseline) as f:
            key = a.workload + ("/minimal" if a.minimal else "")
            recorded = json.load(f).get("digests", {}).get(key)
    if recorded is None:
        print("digest %s: no baseline recorded" % digest)
    else:
        verdict = "matches" if digest == recorded else "DIFFERS from"
        print("digest %s: %s baseline %s" % (digest, verdict, recorded))
    print(lines[-1])


if __name__ == "__main__":
    main()
