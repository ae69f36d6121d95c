#!/usr/bin/env python3
"""Runs every workload on several seeds and records perfbench/baseline.json.

Usage (from the root of a checkout):

    python3 perfbench/record_baseline.py [--runs 10] [--traced-runs 2] [--write]

For each workload it makes `--runs` untraced runs, one seed each, and
prints every end-to-end metric's median, quartiles and spread: the distance
between the first and third quartile as a share of the median, next to
the metric's bound from BENCHMARK.json. It then makes `--traced-runs`
traced runs and checks that the exact counts repeat. Each median is also
compared with the one recorded in baseline.json. With `--write` it stores
the digests, the end-to-end baseline and the per-layer values in
baseline.json. Exits non-zero if a run fails, a digest or exact count
differs between runs, a spread (other than setup_s) exceeds its bound, or
a median is worse than the recorded one by more than its bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT = ("sim.events", "ucx.sends_started", "lrts.device_sends", "hw.memory.live_allocations")


def run(workload, seed, seconds, trace, minimal=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd + (["--minimal"] if minimal else []), stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        sys.exit("run failed: %s\n%s" % (" ".join(cmd), done.stdout))
    lines = done.stdout.splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    return json.loads(lines[-1]), digest


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced-runs", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--write", action="store_true")
    a = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = a.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    base_path = os.path.join(HERE, "baseline.json")
    base = json.load(open(base_path)) if os.path.exists(base_path) else {}
    ok = True

    for w in names:
        digests, values = set(), {}
        for i in range(a.runs):
            res, digest = run(w, a.first_seed + i, seconds, 0)
            digests.add(digest)
            ok &= res["correct"] and res["failed"] == 0
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        e2e = {}
        old = base.get("end_to_end", {}).get(w, {})
        print("%s (%d runs, seeds %d..%d)" % (w, a.runs, a.first_seed, a.first_seed + a.runs - 1))
        for k, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else 0.0
            e2e[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": v}
            flag = ""
            if k != "setup_s" and spread > bounds[k]:
                flag, ok = "  OVER BOUND", False
            elif spread > bounds[k] / 3:
                flag = "  above bound/3"
            # Against the recorded baseline: worse by more than the bound fails.
            if k in old and old[k]["median"]:
                change = (med - old[k]["median"]) / old[k]["median"]
                flag += "  vs baseline %+.4f" % change
                if change > bounds[k]:
                    flag, ok = flag + " WORSE THAN BOUND", False
            print("  %-14s median %-12.6g spread %.4f bound %.2f%s" % (k, med, spread, bounds[k],
                                                                    flag))
        layers = None
        for i in range(a.traced_runs):
            res, digest = run(w, a.first_seed + i, seconds, 1)
            digests.add(digest)
            ok &= res["correct"] and res["failed"] == 0
            vals = {k: m["value"] for k, m in res["metrics"].items()}
            if layers is not None:
                for k in EXACT:
                    if vals[k] != layers[k]:
                        print("  exact count %s differs: %r vs %r" % (k, vals[k], layers[k]))
                        ok = False
            layers = layers or vals
        if layers is not None:
            print("  exact counts: " + ", ".join("%s=%d" % (k, layers[k]) for k in EXACT))
        _, minimal_digest = run(w, a.first_seed, 1, 0, minimal=True)
        if len(digests) != 1:
            print("  digests differ between runs: %s" % sorted(digests))
            ok = False
        print("  digest %s" % " ".join(sorted(digests)))
        base.setdefault("digests", {})[w] = sorted(digests)[0]
        base["digests"][w + "/minimal"] = minimal_digest
        base.setdefault("end_to_end", {})[w] = e2e
        if layers is not None:
            base.setdefault("per_layer", {})[w] = layers

    base["measured_on"] = "%s, %d CPUs, run_seconds %d" % (platform.machine(), os.cpu_count(),
                                                            seconds)
    if a.write:
        with open(base_path, "w") as f:
            json.dump(base, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
