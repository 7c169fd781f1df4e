#!/usr/bin/env python3
"""Same-runner A/B of the repository benchmark: a base revision against
the working tree.

    python3 scripts/ab.py --base HEAD~1 --pairs 10 --seconds 30 \
        [--first-seed 2501] [--workload attest_fresh_aik]... \
        [--claim attest_fresh_aik:attest_per_s[>=1.2x]]... [--trace]

The base revision is exported with `git archive` into
.bench_build/ab/<commit>/ (reused on later calls), so no network and no
git worktree is needed. Pair i runs `perfbench/run.py --trace 0` at
seed first-seed + i (first-seed defaults to 1) in both trees, the base
first on even pairs and the change first on odd ones; each tree builds
its own Release benchmark on its first run. perfbench/ is only called,
never edited. Without --workload every BENCHMARK.json workload runs.

Checks, each turning the exit status to 1:
  * every run reports `correct: true`;
  * at each seed the report digest, the exact block and every *_sim_*
    metric are equal on both sides;
  * every BENCHMARK.json end-to-end metric has a change median no worse
    than the base median by more than the metric's bound (a metric whose
    base quartiles lie further apart than the bound, and whose change
    runs do not all beat every base run, is printed as unresolved);
  * each --claim W:metric: the change is better in at least 9 of 10
    pairs, its median beats the base median by more than the base's
    interquartile distance, and, with >=Rx, by at least that factor.

For each workload and end-to-end metric it prints both sides' median
and quartiles, the change/base ratio of the medians and the pairs each
side won (ties count for neither).

With --trace every pair runs `run.py --trace 1` instead, and the table
covers the BENCHMARK.json per-layer metrics, which a traced run reports
in place of the end-to-end ones. Self times are raw wall milliseconds,
so each *self_ms_per_op is also printed multiplied by its run's
host_speed (as <metric>*host_speed). The traced phase is bounded by wall
time, so per-op counts differ from run to run: they are printed, never
compared for equality. The correctness, digest and exact-block checks
still apply; no per-layer metric has a bound, and --claim is refused.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPORTS = os.path.join(ROOT, ".bench_build", "ab")


def git(*args):
    return subprocess.run(["git"] + list(args), cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev):
    """The base tree for `rev`, exported once per commit."""
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    tree = os.path.join(EXPORTS, commit)
    done = os.path.join(tree, ".exported")
    if not os.path.isfile(done):
        os.makedirs(tree, exist_ok=True)
        proc = subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                                stdout=subprocess.PIPE)
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(tree)
        if proc.wait() != 0:
            sys.exit("ab: git archive %s failed" % commit)
        open(done, "w").close()
    return commit, tree


def run(tree, workload, seed, seconds, trace):
    """One perfbench run: (last-line summary, full result record)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit("ab: %s failed in %s (exit %d)"
                 % (" ".join(cmd), tree, proc.returncode))
    path = os.path.join(tree, ".bench_build", "perfbench", "results",
                        "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path) as f:
        return json.loads(lines[-1]), json.load(f)


def exact_view(summary, record):
    sims = {k: v["value"] for k, v in summary["metrics"].items()
            if "_sim_" in k}
    return {"digest": record["digest"],
            "exact": {k: v["value"] for k, v in record["exact"].items()},
            "sim": sims}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def ahead(better, base, change):
    """True when `change` is strictly better than `base`."""
    return change > base if better == "higher" else change < base


def worse_by(better, base, change):
    """The fraction by which `change` is worse than `base` (< 0: better)."""
    delta = base - change if better == "higher" else change - base
    if base:
        return delta / abs(base)
    return math.inf if delta > 0 else 0.0


def metric_values(summary, record, metrics, trace):
    """name -> value for one run; traced self times also scaled."""
    values = {m["name"]: summary["metrics"][m["name"]]["value"]
              for m in metrics}
    if trace:
        speed = record["metadata"]["host_speed"]
        for m in metrics:
            if m["name"].endswith("self_ms_per_op"):
                values[m["name"] + "*host_speed"] = values[m["name"]] * speed
    return values


def table(metrics, trace):
    """The rows to print: (name, better, bound or None)."""
    rows = []
    for m in metrics:
        rows.append((m["name"], m["better"], None if trace else m["bound"]))
        if trace and m["name"].endswith("self_ms_per_op"):
            rows.append((m["name"] + "*host_speed", m["better"], None))
    return rows


def parse_claim(text):
    m = re.fullmatch(r"([\w.]+):([\w.]+)(?:>=([0-9.]+)x)?", text)
    if not m:
        sys.exit("ab: bad --claim %r (want W:metric or W:metric>=1.2x)"
                 % text)
    return m.group(1), m.group(2), float(m.group(3) or 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--claim", action="append", default=[])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.trace and args.claim:
        sys.exit("ab: --claim names an end-to-end metric, which a traced "
                 "run does not report")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    trace = 1 if args.trace else 0
    claims = [parse_claim(c) for c in args.claim]
    for w, name, _ in claims:
        if w not in workloads or name not in {m["name"] for m in metrics}:
            sys.exit("ab: claim %s:%s names no workload or end-to-end "
                     "metric of this run" % (w, name))

    commit, base_tree = export(args.base)
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    print("base %s (%s), change = working tree; %d %spairs x %g s, "
          "seeds %d-%d" % (args.base, commit[:12], args.pairs,
                           "traced " if trace else "", args.seconds,
                           seeds[0], seeds[-1]), flush=True)

    failures = []
    for workload in workloads:
        values = {"base": {}, "change": {}}
        for i, seed in enumerate(seeds):
            order = (("base", base_tree), ("change", ROOT))
            if i % 2:
                order = order[::-1]
            views, speed = {}, {}
            for side, tree in order:
                summary, record = run(tree, workload, seed, args.seconds,
                                      trace)
                if not summary["correct"]:
                    failures.append("%s seed %d: %s run not correct: %s"
                                    % (workload, seed, side,
                                       record["errors"]))
                views[side] = exact_view(summary, record)
                speed[side] = record["metadata"].get("host_speed")
                for name, value in metric_values(summary, record, metrics,
                                                 trace).items():
                    values[side].setdefault(name, []).append(value)
            for part in ("digest", "exact", "sim"):
                if views["base"][part] != views["change"][part]:
                    failures.append("%s seed %d: %s differs between the "
                                    "sides" % (workload, seed, part))
            head = metrics[0]["name"]
            print("  %s seed %d (%s first): %s %.4g -> %.4g, host_speed "
                  "%s -> %s" % (workload, seed, order[0][0], head,
                                values["base"][head][-1],
                                values["change"][head][-1],
                                speed["base"], speed["change"]), flush=True)

        print("\n%s (%d pairs): base median [quartiles] -> change median "
              "[quartiles], ratio, change ahead / base ahead%s"
              % (workload, args.pairs, "" if trace else ", bound"))
        for name, better, bound in table(metrics, trace):
            base, change = values["base"][name], values["change"][name]
            bmed, cmed = statistics.median(base), statistics.median(change)
            bq, cq = quartiles(base), quartiles(change)
            wins = sum(ahead(better, b, c) for b, c in zip(base, change))
            losses = sum(ahead(better, c, b) for b, c in zip(base, change))
            if bound is None:
                print("  %-40s %10.4g [%.4g, %.4g] -> %10.4g [%.4g, %.4g]  "
                      "%.3fx  %d/%d" % (
                          name, bmed, bq[0], bq[1], cmed, cq[0], cq[1],
                          cmed / bmed if bmed else math.nan, wins, losses))
                continue
            inside = worse_by(better, bmed, cmed) <= bound
            # A base spread wider than the bound cannot show the change
            # inside it, unless every change run beats every base run.
            wide = (bq[1] - bq[0]) / abs(bmed) > bound if bmed else False
            clear = all(ahead(better, b, c) for b in base for c in change)
            verdict = ("OUTSIDE" if not inside else
                       "unresolved" if wide and not clear else "inside")
            print("  %-20s %10.4g [%.4g, %.4g] -> %10.4g [%.4g, %.4g]  "
                  "%.3fx  %d/%d  %s %g" % (
                      name, bmed, bq[0], bq[1], cmed, cq[0], cq[1],
                      cmed / bmed if bmed else math.nan, wins, losses,
                      verdict, bound))
            if not inside:
                failures.append("%s %s: median %.4g -> %.4g is worse than "
                                "its bound %g" % (workload, name, bmed,
                                                  cmed, bound))
            for w, claimed, factor in claims:
                if (w, claimed) != (workload, name):
                    continue
                need = math.ceil(0.9 * args.pairs)
                gap = cmed - bmed if better == "higher" else bmed - cmed
                better_x = (cmed / bmed if better == "higher" else
                            bmed / cmed) if bmed and cmed else math.nan
                holds = (wins >= need and gap > bq[1] - bq[0] and
                         (not factor or better_x >= factor))
                print("  claim %s:%s%s: %d/%d wins (need %d), median gap "
                      "%.4g vs base IQR %.4g, %.3fx better: %s" % (
                          w, claimed, ">=%gx" % factor if factor else "",
                          wins, args.pairs, need, gap, bq[1] - bq[0],
                          better_x, "HOLDS" if holds else "FAILS"))
                if not holds:
                    failures.append("claim %s:%s fails" % (w, claimed))
        print(flush=True)

    for failure in failures:
        print("FAIL: " + failure)
    print("ab: %s" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
