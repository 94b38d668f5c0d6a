#!/usr/bin/env python3
"""Repository benchmark: builds the driver from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload cold_start --seed 1 --seconds 10 \
        --trace 0 --rate 300
    python3 perfbench/run.py --self-check      # every workload at tiny size

The first run configures and builds perfbench/ (library sources from src/)
into $CARGO_TARGET_DIR or .bench_build/. The driver's stdout is passed
through; its last line is the result object
{"correct", "attempted", "failed", "metrics"}. Results and traces are
written under .bench_build/results/. See perfbench/NOTES.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("cold_start", "warm_solve", "service_open")


def fail(msg, code=3):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(REPO, ".bench_build"))


def build():
    """Configures (once) and builds the driver; returns the binary path."""
    if not os.path.isfile(os.path.join(REPO, "src", "core", "solver.cpp")):
        fail("library sources not found under %s/src" % REPO)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail("%s not found on PATH" % tool)
    bdir = os.path.join(build_root(), "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "perfbench")


def source_shas():
    """(git sha or 'none', sha256 of every file under src/)."""
    git = "none"
    if os.path.isdir(os.path.join(REPO, ".git")):
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            git = out.stdout.strip()
    h = hashlib.sha256()
    src = os.path.join(REPO, "src")
    for d, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for f in sorted(files):
            p = os.path.join(d, f)
            h.update(os.path.relpath(p, src).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return git, h.hexdigest()[:16]


def run_driver(binary, args):
    """Runs the driver once; returns (exit code, stdout lines)."""
    root = build_root()
    run_dir = os.path.join(root, "run")
    out_dir = os.path.join(root, "results")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    git, src = source_shas()
    cmd = [binary] + args + [
        # Relative to the working directory: the service socket path must fit
        # sockaddr_un wherever the checkout lives.
        "--run-dir", os.path.relpath(run_dir),
        "--out-dir", out_dir, "--git-sha", git, "--src-sha", src]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def check_result(lines, units):
    """Problems with the driver's final line against {metric name: unit}."""
    if not lines:
        return ["no output"]
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return ["last line is not JSON"]
    bad = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        bad.append("result keys %s" % sorted(res))
        return bad
    if res["correct"] is not True or res["failed"] != 0:
        bad.append("%d of %d operations failed" % (res["failed"], res["attempted"]))
    if sorted(res["metrics"]) != sorted(units):
        bad.append("metric names differ from BENCHMARK.json: %s" %
                   sorted(set(res["metrics"]) ^ set(units)))
    for name, m in res["metrics"].items():
        if units.get(name) != m.get("unit"):
            bad.append("%s: unit %s, expected %s" % (name, m.get("unit"), units.get(name)))
    return bad


def self_check(binary):
    """Every workload at tiny size, untraced and traced: every metric named in
    BENCHMARK.json present with its unit, the oracle clean, end-to-end metrics
    non-zero, and the Chrome trace written and parseable."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    cmd = spec["command"]
    rate = cmd[cmd.index("--rate") + 1]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for w in WORKLOADS:
        for trace in ("0", "1"):
            code, lines = run_driver(binary, [
                "--workload", w, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--rate", rate, "--tiny"])
            bad = check_result(lines, layer if trace == "1" else e2e)
            if code != 0:
                bad.append("exit code %d" % code)
            if trace == "0" and not bad:
                metrics = json.loads(lines[-1])["metrics"]
                bad += ["%s is 0" % n for n, m in metrics.items() if m["value"] == 0]
            if trace == "1":
                path = os.path.join(build_root(), "results", w + "-seed7.trace.json")
                try:
                    with open(path) as fh:
                        if not json.load(fh)["traceEvents"]:
                            bad.append("empty trace")
                except (OSError, ValueError, KeyError) as e:
                    bad.append("trace file: %s" % e)
            print("self-check %-12s trace=%s %s" % (w, trace, "ok" if not bad else "; ".join(bad)))
            problems += bad
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=("0", "1"))
    ap.add_argument("--rate", type=float,
                    help="open-loop offered rate, requests/s")
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    required = (a.workload, a.seed, a.seconds, a.trace, a.rate)
    if not a.self_check and None in required:
        ap.error("--workload, --seed, --seconds, --trace and --rate are required")

    binary = build()
    if a.self_check:
        return self_check(binary)
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds",
            str(a.seconds), "--trace", a.trace, "--rate", str(a.rate)]
    code, lines = run_driver(binary, args)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
