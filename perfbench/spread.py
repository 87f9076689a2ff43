#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [11-20 ...]

Runs perfbench/run.py once per seed, with BENCHMARK.json's run_seconds and
--trace 0, and prints for each set of seeds, per metric, the median, the
quartiles (statistics.quantiles, n=4) and the relative IQR,
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json. Given
two or more sets, it also prints each later set's median as a relative
change from the first set's. A seed listed twice (e.g. 1-5,1) must print the
same determinism digest both times; a mismatch is reported as an error.
Exits 1 if any run fails, is incorrect or drifts, if a relative IQR exceeds
a third of its bound, or if a set's median differs from the first set's by
more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds += list(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("seed %d: exit %d" % (seed, proc.returncode))
    digest = next((l.split()[-1] for l in lines
                   if l.startswith("determinism digest")), "")
    return json.loads(lines[-1]), digest, proc.stderr


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", default=["1-10"],
                        help="one or more sets of seeds, e.g. 1-10 11-20")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    digests, ok = {}, True
    medians = []
    for text in args.seeds:
        values = {}
        for seed in parse_seeds(text):
            result, digest, stderr = run_once(args.workload, seed,
                                              bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                ok = False
                sys.stderr.write("seed %d incorrect:\n%s" % (seed, stderr))
            if seed in digests and digests[seed] != digest:
                ok = False
                print("seed %d: determinism digest %s != %s"
                      % (seed, digest, digests[seed]))
            digests[seed] = digest
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("seed %d: attempted %d failed %d digest %s setup_s=%.4g "
                  "ops_per_s=%.4g"
                  % (seed, result["attempted"], result["failed"], digest,
                     result["metrics"]["setup_s"]["value"],
                     result["metrics"]["ops_per_s"]["value"]), flush=True)

        print("\nseeds %s\n" % text)
        print("| metric | median | Q1 | Q3 | rel IQR | bound |")
        print("|---|---|---|---|---|---|")
        medians.append({})
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], 0, vals[0]))
            rel = (q3 - q1) / med if med else 0.0
            medians[-1][name] = med
            flag = ""
            if rel > bounds[name] / 3:
                flag = " (above bound/3)"
                ok = False
            print("| %s | %.6g | %.6g | %.6g | %.4f%s | %s |"
                  % (name, med, q1, q3, rel, flag, bounds[name]))
        print()

    if len(medians) > 1:
        print("| metric | bound | " + " | ".join(
            "median %s" % t for t in args.seeds) + " | largest change |")
        print("|---|---|" + "---|" * len(args.seeds) + "---|")
        for name, first in medians[0].items():
            change = max(abs(m[name] - first) / first if first else 0.0
                         for m in medians[1:])
            flag = ""
            if change > bounds[name]:
                flag = " (above bound)"
                ok = False
            print("| %s | %s | %s | %.4f%s |"
                  % (name, bounds[name],
                     " | ".join("%.6g" % m[name] for m in medians),
                     change, flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
