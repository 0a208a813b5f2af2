#!/usr/bin/env python3
"""The repository benchmark: builds gpd, gpdd and the gpdbench harness from
the sources of this checkout, then runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --steadiness K --workload W [--seed N] [--seconds S]

Workloads: audit-lattice, audit-poly, gpdd-stream (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Build output, inputs, spans and
server files stay under .bench_build/ in the checkout.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
WORKLOADS = ["audit-lattice", "audit-poly", "gpdd-stream"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds gpdd and gpdbench; returns their paths."""
    for needed in ("src/CMakeLists.txt", "tools/gpdd.cpp", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("source file %s is missing; run from a full checkout" % needed)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != os.path.join(ROOT, "perfbench"):
            shutil.rmtree(BUILD)  # configured for another checkout
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(cache):
            cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("cmake configure failed; see the log above this line")
        jobs = str(min(os.cpu_count() or 1, 4))
        cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "gpdd", "gpdbench"]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            with open(log_path) as f:
                sys.stderr.write("".join(f.readlines()[-40:]))
            fail("build failed")
    return os.path.join(BUILD, "gpdd"), os.path.join(BUILD, "gpdbench")


def describe():
    try:
        out = subprocess.run(["git", "describe", "--tags", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_harness(binaries, workload, seed, seconds, trace, inject=False, echo=True):
    """Runs one workload; returns (exit code, stdout lines)."""
    gpdd, gpdbench = binaries
    work = os.path.join(RUNS, "%s-s%d-t%d" % (workload, seed, trace))
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ)
    env.pop("GPD_THREADS", None)  # pinned: sequential detection
    cmd = [gpdbench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", work,
           "--gpdd", gpdd, "--describe", describe()]
    if inject:
        cmd.append("--inject-faults")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, lines


def result_of(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def self_check(binaries):
    """Each workload with one injected wrong verdict and one dropped
    response must report exactly those two failures; the reference checks
    must agree with exhaustive ground truth."""
    ok = True
    for workload in WORKLOADS:
        code, lines = run_harness(binaries, workload, 1, 2, 0, inject=True, echo=False)
        res = result_of(lines)
        good = code == 0 and res is not None and res["failed"] == 2 and not res["correct"]
        ok = ok and good
        print("self-check %-13s injected 2 faults, reported failed=%s correct=%s: %s"
              % (workload, res and res["failed"], res and res["correct"],
                 "ok" if good else "FAILED"))
        for line in lines[:-1]:
            if line.startswith("FAIL"):
                print("    " + line)
    code, lines = run_harness(binaries, "reference-check", 1, 1, 0, echo=False)
    res = result_of(lines)
    good = code == 0 and res is not None and res["correct"]
    ok = ok and good
    print("self-check reference checks vs exhaustive lattice: %s"
          % (lines[0] if lines else "no output"))
    print(json.dumps({"correct": ok, "attempted": len(WORKLOADS) + 1,
                      "failed": 0 if ok else 1, "metrics": {}}))
    return 0 if ok else 1


def steadiness(binaries, workload, seed, seconds, k):
    """Runs the workload k times with seeds seed..seed+k-1 and prints each
    metric's median, quartiles and (q3-q1)/median."""
    values = {}
    units = {}
    for i in range(k):
        code, lines = run_harness(binaries, workload, seed + i, seconds, 0, echo=False)
        res = result_of(lines)
        if code != 0 or res is None:
            fail("run with seed %d failed" % (seed + i))
        guard = [l for l in lines if l.startswith(workload + ":")]
        print("seed %d: correct=%s attempted=%d failed=%d | %s"
              % (seed + i, res["correct"], res["attempted"], res["failed"],
                 guard[0] if guard else ""))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print("%-18s %-6s %12s %12s %12s %10s" % ("metric", "unit", "q1", "median", "q3", "iqr/med"))
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print("%-18s %-6s %12.6g %12.6g %12.6g %10.4f" % (name, units[name], q1, med, q3, spread))
    print(json.dumps({"steadiness": {"workload": workload, "runs": k, "metrics": summary}}))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--steadiness", type=int, metavar="K")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")
    binaries = build()
    if args.self_check:
        return self_check(binaries)
    if args.steadiness:
        return steadiness(binaries, args.workload, args.seed, args.seconds, args.steadiness)
    code, lines = run_harness(binaries, args.workload, args.seed, args.seconds, args.trace)
    if code != 0 or result_of(lines) is None:
        fail("%s exited with code %d without a result" % (args.workload, code))
    return 0


if __name__ == "__main__":
    sys.exit(main())
