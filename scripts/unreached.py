#!/usr/bin/env python3
"""List the src/ functions that no product binary links, against an allowlist.

    python3 scripts/unreached.py

Run from anywhere inside a checkout; it builds under build-unreached/
at the root. The product binaries are the figure and ablation
binaries with a golden under bench/golden/,
bench_{shards,faults,recovery,failover,codec}, every program under
examples/ and perfbench's fleet_bench. They are built at -O0 with one
section per function and linked with --gc-sections, so a function
survives in a binary only if something the binary runs can reach it.

The script prints every non-template monatt:: function that the src/
libraries define and none of those binaries keeps, by qualified name
(overloads share one line). Template instantiations are left out:
which ones a library holds depends on what its own code happens to
instantiate.

scripts/unreached_allowlist.txt names the functions allowed to stay
unreached, each with the tests or benches that use it: test seams,
through which tests drive or observe the product, and deletion
candidates that only their own unit tests reach. It exits 1 when a
function is unreached and not listed (delete it, move it into the
tests, or list it with its users) or when a listed function is no
longer unreached (drop the line). It configures perfbench/ in its own
build directory and writes nothing under it.
"""

import glob
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "scripts", "unreached_allowlist.txt")
BUILD = os.path.join(ROOT, "build-unreached")
JOBS = str(min(os.cpu_count() or 1, 4))

FLAGS = [
    "-G", "Ninja",
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
BENCHES = ["bench_shards", "bench_faults", "bench_recovery",
           "bench_failover", "bench_codec"]


def stem(path):
    return os.path.splitext(os.path.basename(path))[0]


def run(cmd, log):
    if subprocess.call(cmd, cwd=ROOT, stdout=log,
                       stderr=subprocess.STDOUT) != 0:
        sys.exit("unreached: failed: " + " ".join(cmd) +
                 " (see " + log.name + ")")


def build():
    """Build the product binaries; return (libraries, binaries)."""
    main = os.path.join(BUILD, "main")
    perf = os.path.join(BUILD, "perfbench")
    goldens = sorted(stem(p) for p in
                     glob.glob(os.path.join(ROOT, "bench", "golden", "*.txt")))
    examples = sorted(stem(p) for p in
                      glob.glob(os.path.join(ROOT, "examples", "*.cpp")))
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "w") as log:
        run(["cmake", "-S", ROOT, "-B", main] + FLAGS, log)
        run(["cmake", "--build", main, "-j", JOBS, "--target"] +
            goldens + BENCHES + examples, log)
        run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", perf] +
            FLAGS, log)
        run(["cmake", "--build", perf, "-j", JOBS, "--target",
             "fleet_bench"], log)
    libraries = sorted(glob.glob(os.path.join(main, "src", "*", "*.a")))
    binaries = ([os.path.join(main, "bench", b) for b in goldens + BENCHES] +
                [os.path.join(main, "examples", e) for e in examples] +
                [os.path.join(perf, "fleet_bench")])
    return libraries, binaries


def functions(path):
    """Demangled names of the functions `path` defines."""
    out = subprocess.run(["nm", "-C", "--defined-only", path],
                         capture_output=True, text=True, check=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in ("T", "t", "W", "w"):
            names.add(parts[2])
    return names


def qualified_name(symbol):
    """The monatt:: qualified name of a non-template function, else None.

    A template instantiation shows template arguments in its name, or
    its return type before it; a lambda body belongs to its enclosing
    function."""
    s = symbol.replace("(anonymous namespace)", "{anon}")
    s = s.replace("[abi:cxx11]", "")
    if not s.startswith("monatt::") or "{lambda" in s:
        return None
    op = re.search(r"::operator(\(\)|[^(]*)", s)
    params = s.find("(", op.end() if op else 0)
    name = s[:params] if params >= 0 else s
    bare = name[:op.start()] if op else name
    if "<" in bare or " " in bare:
        return None
    return name


def read_allowlist():
    entries = {}
    with open(ALLOWLIST) as f:
        for n, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            name, _, user = line.partition(" ")
            if not user.strip():
                sys.exit(f"unreached: {ALLOWLIST}:{n}: {name} names no "
                         "test or bench that uses it")
            entries[name] = n
    return entries


def main():
    libraries, binaries = build()
    linked = set()
    for b in binaries:
        linked |= functions(b)
    unreached = set()
    for lib in libraries:
        for symbol in functions(lib) - linked:
            name = qualified_name(symbol)
            if name:
                unreached.add(name)

    allowed = read_allowlist()
    new = sorted(unreached - allowed.keys())
    stale = sorted(allowed.keys() - unreached)
    print(f"{len(unreached)} functions unreached by {len(binaries)} "
          f"product binaries; {len(allowed)} allowlisted")
    for name in sorted(unreached):
        print(("  " if name in allowed else "+ ") + name)
    for name in new:
        print(f"new: {name} is unreached and not in the allowlist")
    for name in stale:
        print(f"stale: {name} (allowlist line {allowed[name]}) is reached "
              "or gone")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
