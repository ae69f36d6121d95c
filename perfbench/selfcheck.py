#!/usr/bin/env python3
"""Self-check of the benchmark: runs every workload of BENCHMARK.json at
minimal size, untraced and traced, and asserts that each run is correct,
has no failed point (fail_frac 0), and prints exactly the metrics
BENCHMARK.json names, each with its declared unit and a finite value.

Usage (from the root of a checkout): python3 perfbench/selfcheck.py
Exits non-zero on the first violation.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    # jacobi_weak is built into the driver but not gated by BENCHMARK.json
    # (see README.md); it is still checked here.
    for w in spec["workloads"] + [{"name": "jacobi_weak"}]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                   "--seed", "1", "--seconds", "1", "--trace", trace, "--minimal"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            tag = "%s trace=%s" % (w["name"], trace)
            before = len(problems)
            if done.returncode != 0:
                problems.append("%s: exit code %d" % (tag, done.returncode))
                print("%-28s FAILED" % tag)
                continue
            res = json.loads(done.stdout.splitlines()[-1])
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s: correct=%s failed=%d attempted=%d" % (
                    tag, res["correct"], res["failed"], res["attempted"]))
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = res["metrics"]
            for name in sorted(set(want) ^ set(got)):
                problems.append("%s: metric %s %s" % (
                    tag, name, "missing" if name in want else "not in BENCHMARK.json"))
            for name in sorted(set(want) & set(got)):
                m = got[name]
                if m.get("unit") != want[name]:
                    problems.append("%s: %s unit %r, expected %r" % (tag, name, m.get("unit"),
                                                                     want[name]))
                if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
                    problems.append("%s: %s value %r" % (tag, name, m.get("value")))
            print("%-28s %s" % (tag, "ok" if len(problems) == before else "FAILED"))
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
