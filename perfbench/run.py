#!/usr/bin/env python3
"""Real-stack fleet benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload attest_cached --seed 7 \
        --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the repository's
libraries and fleet_bench (perfbench/CMakeLists.txt) into
.bench_build/perfbench; later runs reuse the build. fleet_bench runs
with the compute pool pinned to width 1 (MONATT_THREADS=1).

Checks, beyond fleet_bench's own (every request settles once, ok or failed; no
request fails; identical repeated set-ups at one seed):
  * the digest over the verified reports and every *_sim_* metric must
    match the first run of the same (workload, seed) and the same sources
    (a digest of src/ and perfbench/) in this checkout, traced or not;
  * the printed metrics must be exactly the ones BENCHMARK.json names.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Human-readable output, the run
metadata and the self-time table come before it; the full record,
metadata included, is kept under .bench_build/perfbench/results.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fleet_bench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(step))


def commit():
    """The commit when the checkout is a git repository, else None."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def tree_digest():
    """SHA-256 over the sources the benchmark builds and runs, so
    uncommitted edits change it too."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_determinism(record, tree):
    """Exact outputs must repeat across runs of one (workload, seed) on
    the same sources; other sources may move them."""
    state_dir = os.path.join(BUILD, "state")
    os.makedirs(state_dir, exist_ok=True)
    path = os.path.join(state_dir, "%s-%d-%s.json" % (
        record["workload"], record["seed"], tree))
    exact = {"digest": record["digest"],
             "exact": {k: v["value"] for k, v in record["exact"].items()}}
    if not os.path.isfile(path):
        with open(path, "w") as f:
            json.dump(exact, f)
        return []
    with open(path) as f:
        first = json.load(f)
    errors = []
    if first["digest"] != exact["digest"]:
        errors.append("report digest differs from an earlier run at this "
                      "seed")
    for name, value in first["exact"].items():
        if exact["exact"].get(name) != value:
            errors.append("%s differs from an earlier run at this seed"
                          % name)
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tree = tree_digest()
    build()

    command = [BINARY, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    env = dict(os.environ, MONATT_THREADS="1")
    started = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload,
                                                 RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("fleet_bench exited with %d" % proc.returncode)
    record = json.loads(lines[-1])

    errors = list(record["errors"]) + check_determinism(record, tree)
    names = expected_metrics(args.trace)
    if names is not None and names != set(record["metrics"]):
        errors.append("metrics differ from BENCHMARK.json: %s"
                      % sorted(names ^ set(record["metrics"])))
    record["errors"] = errors
    record["correct"] = record["correct"] and not errors
    record["metadata"]["commit"] = commit()
    record["metadata"]["source_tree"] = tree
    record["metadata"]["run_wall_s"] = time.monotonic() - started

    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump(record, f, indent=1)

    for line in lines[:-1]:
        print(line)
    print("metadata: " + json.dumps(record["metadata"], sort_keys=True))
    for error in errors:
        print("error: " + error)
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))


if __name__ == "__main__":
    main()
