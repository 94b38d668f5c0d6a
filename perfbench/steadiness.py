#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each chosen
workload and prints, per metric, the median and the interquartile range as a
share of the median (statistics.quantiles(values, n=4)) next to the metric's
bound. Run from the root of the repository:

    python3 perfbench/steadiness.py --workloads warm_solve --seeds 5
    python3 perfbench/steadiness.py --seeds 10            # every workload
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--out", help="append every run's result line to this file")
    a = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for w in a.workloads:
        values = {name: [] for name in bounds}
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print("%s seed %d: exit %d" % (w, seed, proc.returncode))
                return 1
            res = json.loads(last)
            if a.out:
                with open(a.out, "a") as fh:
                    fh.write(json.dumps({"workload": w, "seed": seed, "result": res}) + "\n")
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print("%s seed %d: ok (%d ops)" % (w, seed, res["attempted"]), flush=True)
        print("\n%-20s %12s %8s %8s  (%s, %d seeds)" %
              ("metric", "median", "iqr/med", "bound", w, a.seeds))
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            flag = "" if spread < bounds[name] / 3 else "  <-- over a third of bound"
            print("%-20s %12.4f %8.3f %8.3f%s" % (name, med, spread, bounds[name], flag))
        print(flush=True)
    print("worst spread / bound (setup_s excluded): %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
