#!/usr/bin/env python3
"""Perf-regression gate over the figure benches' JSON output.

Compares the *simulated* metrics — which are deterministic for a fixed
seed, so any drift is a real behavioral change, not runner noise —
of freshly produced BENCH_*.json files against the baselines committed
under bench/baselines/.

Gated metrics, matched by full JSON path:
  - attestations_per_sim_sec  (higher is better)
  - sim_makespan_sec, sim_seconds  (lower is better)
  - records_replayed, records_quarantined  (lower is better; both are
    sim-deterministic recovery SLO metrics from bench_recovery)
  - tagged_frame_bytes  (lower is better; exact encoded sizes from
    bench_codec — deterministic, so run the codec gate with a tight
    --tolerance and regenerate bench/baselines/codec/ in any PR that
    intentionally evolves the schema)
  - sim_detect_p50_ms, sim_detect_p99_ms  (lower is better; simulated
    TCB-rollback detection latency from bench_faults' rollback leg)
  - migrations_per_rollback  (higher is better; completed forced
    migrations per quarantined host from the same leg)

Wall-clock metrics (any leaf key starting with ``wall_``) are
runner-dependent, so they WARN instead of failing: drift is printed
for the log but never trips the gate. Direction for wall metrics is
inferred from the name: ``*_per_sec`` is higher-is-better, everything
else (elapsed seconds) is lower-is-better.

A metric regressing by more than --tolerance (default 15%) fails the
gate. Per-metric overrides loosen or tighten individual paths or keys:

  --override sim_makespan_sec=0.30          # every leaf with this key
  --override 'legs.clean_replicas3.sim_makespan_sec=0.05'  # one exact path

A baseline metric missing from the fresh run fails too: that means the
bench's shape changed and the baseline must be regenerated (rerun the
bench and copy its JSON over the baseline in the same PR). So does a
fresh run whose top-level ``benchmark`` or ``workload`` string differs
from its baseline's: it measured something else, so the gate prints
that one line and compares none of its metrics.

Usage:
  check_bench_regression.py --baseline-dir bench/baselines \
                            --current-dir build/bench \
                            [--tolerance 0.15] [--override KEY=TOL ...]
"""

import argparse
import json
import pathlib
import sys

HIGHER_IS_BETTER = {"attestations_per_sim_sec",
                    # Rollback response yield (bench_faults): each
                    # quarantined host must shed its VMs; a drop means
                    # the controller stopped force-migrating victims.
                    "migrations_per_rollback"}
LOWER_IS_BETTER = {"sim_makespan_sec", "sim_seconds",
                   "records_replayed", "records_quarantined",
                   # Codec bytes-on-wire (bench_codec): encoded sizes
                   # feed the simulated transfer-time arithmetic, so
                   # growth is a behavioral regression, not noise.
                   "tagged_frame_bytes",
                   # TCB-rollback detection latency (bench_faults):
                   # simulated time from attestation issue to the
                   # customer holding a TcbRollback verdict.
                   "sim_detect_p50_ms", "sim_detect_p99_ms"}
WALL_PREFIX = "wall_"
# Top-level strings naming what a run measured; a fresh run must match
# its baseline's before any metric is compared.
SHAPE_KEYS = ("benchmark", "workload")


def gated_class(key):
    """Return 'fail', 'warn' or None for a leaf key."""
    if key in HIGHER_IS_BETTER or key in LOWER_IS_BETTER:
        return "fail"
    if key.startswith(WALL_PREFIX):
        return "warn"
    return None


def higher_is_better(key):
    if key in HIGHER_IS_BETTER:
        return True
    if key in LOWER_IS_BETTER:
        return False
    # Wall metrics: rates up, elapsed times down.
    return key.endswith("_per_sec")


def walk(node, path=""):
    """Yield (json_path, key, value) for every gated numeric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            here = f"{path}.{key}" if path else key
            if gated_class(key) is not None:
                if isinstance(value, (int, float)):
                    yield here, key, float(value)
            else:
                yield from walk(value, here)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from walk(value, f"{path}[{i}]")


def tolerance_for(path, key, default, overrides):
    """Exact-path override wins over key override wins over default."""
    if path in overrides:
        return overrides[path]
    if key in overrides:
        return overrides[key]
    return default


def shape_mismatch(name, baseline, current):
    """One failure line when the fresh run measured another benchmark or
    workload than its baseline, else None."""
    for key in SHAPE_KEYS:
        base, cur = baseline.get(key), current.get(key)
        if base != cur:
            return (f"{name}: {key} differs: baseline {base!r}, "
                    f"fresh run {cur!r}")
    return None


def compare(name, baseline, current, tolerance, overrides):
    failures = []
    warnings = []
    checked = 0
    current_leaves = {p: v for p, _, v in walk(current)}
    for path, key, base in walk(baseline):
        if path not in current_leaves:
            failures.append(
                f"{name}: {path} missing from fresh run "
                f"(bench shape changed? regenerate the baseline)")
            continue
        cur = current_leaves[path]
        checked += 1
        if base == 0:
            continue
        if higher_is_better(key):
            drift = (base - cur) / base
            direction = "throughput drop"
        else:
            drift = (cur - base) / base
            direction = "slowdown"
        tol = tolerance_for(path, key, tolerance, overrides)
        if drift > tol:
            message = (f"{name}: {path} {direction} {100 * drift:.1f}% "
                       f"(baseline {base:.4g}, current {cur:.4g}, "
                       f"tolerance {100 * tol:.0f}%)")
            if gated_class(key) == "warn":
                warnings.append(message)
            else:
                failures.append(message)
    return checked, failures, warnings


def parse_overrides(pairs):
    overrides = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"bad --override '{pair}': expected KEY=TOL")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise SystemExit(
                f"bad --override '{pair}': '{value}' is not a number")
    return overrides


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline-dir", required=True, type=pathlib.Path)
    ap.add_argument("--current-dir", required=True, type=pathlib.Path)
    ap.add_argument("--tolerance", type=float, default=0.15)
    ap.add_argument("--override", action="append", default=[],
                    metavar="KEY=TOL",
                    help="per-metric tolerance: a leaf key "
                         "(sim_makespan_sec=0.3) or an exact JSON path "
                         "(legs.clean_replicas3.sim_makespan_sec=0.05); "
                         "repeatable")
    args = ap.parse_args()
    overrides = parse_overrides(args.override)

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no BENCH_*.json baselines in {args.baseline_dir}",
              file=sys.stderr)
        return 2

    total = 0
    all_failures = []
    all_warnings = []
    for basefile in baselines:
        curfile = args.current_dir / basefile.name
        if not curfile.exists():
            all_failures.append(
                f"{basefile.name}: not produced by this run "
                f"(expected {curfile})")
            continue
        with open(basefile) as f:
            baseline = json.load(f)
        with open(curfile) as f:
            current = json.load(f)
        mismatch = shape_mismatch(basefile.name, baseline, current)
        if mismatch:
            all_failures.append(mismatch)
            print(f"{basefile.name}: FAIL")
            continue
        checked, failures, warnings = compare(
            basefile.name, baseline, current, args.tolerance, overrides)
        total += checked
        all_failures.extend(failures)
        all_warnings.extend(warnings)
        status = "FAIL" if failures else "ok"
        print(f"{basefile.name}: {checked} metrics checked, {status}")

    if all_warnings:
        print("\nwall-clock drift (runner-dependent, not gated):")
        for warning in all_warnings:
            print(f"  WARN {warning}")

    if all_failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for failure in all_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed: {total} metrics within tolerance "
          f"(default {100 * args.tolerance:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
