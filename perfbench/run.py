#!/usr/bin/env python3
"""Benchmark entry point, run from the root of a pak source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--jobs J]
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1 [--jobs J]
    python3 perfbench/run.py --self-test

Builds the release `pak` binary and perfbench/ledger.exe from source
with dune, then runs one workload (see perfbench/README.md), or each
in turn with `--workload all`. The last line of standard output is the
JSON result (of the last workload, with `all`). Exits 1 after the
result when an answer is wrong. Exits 2 or more, printing no result, when the
checkout is not a pak source tree, the build fails or the run breaks.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["sweep_d6", "serve_cold", "serve_warm", "serve_degraded"]
TIMEOUT_S = 170
LEDGER = "_build/default/perfbench/ledger.exe"
SELFTEST = "_build/default/perfbench/selftest.exe"
PAK = "_build/default/bin/pak_cli.exe"


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    for path in ("dune-project", "bin/pak_cli.ml", "lib", "perfbench/dune"):
        if not os.path.exists(path):
            die(f"not a pak source checkout: {path} is missing")
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    env = dict(os.environ)
    # Keep every build product inside the checkout: no shared dune cache.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(".perfbench-cache")
    r = subprocess.run(["dune", "build", "--release", "--display", "quiet", *targets],
                       env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        die("build failed", 3)


def run_ledger(workload, a):
    cmd = [LEDGER, "--workload", workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--jobs", str(a.jobs), "--pak", PAK]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run timed out", 4)
    out = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(out[-1])
    except (ValueError, IndexError):
        result = None
    if r.returncode not in (0, 1) or result is None:
        sys.stdout.write(r.stdout)
        die(f"ledger failed (exit {r.returncode})", 4)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if a.self_test:
        build([SELFTEST])
        sys.exit(subprocess.run([SELFTEST], timeout=TIMEOUT_S).returncode)
    if None in (a.workload, a.seed, a.seconds, a.trace):
        die("--workload, --seed, --seconds and --trace are required")
    build([PAK, LEDGER])
    code = 0
    for w in WORKLOADS if a.workload == "all" else [a.workload]:
        code = max(code, run_ledger(w, a))
    sys.exit(code)


if __name__ == "__main__":
    main()
