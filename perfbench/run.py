#!/usr/bin/env python3
"""Build the SPINE benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dna-query --seed 1 --seconds 20 --trace 0

The benchmark executable is built with dune into .bench_build/ (the
dune cache is disabled, so nothing is written outside the checkout),
then run with the same arguments.  Its last stdout line is the JSON
result.  The program runs at its defaults: every SPINE_* variable
(telemetry, query log, fault plans) is removed from its environment.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "default", "perfbench", "bench.exe")
WORK = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def main():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPINE_")}
    env["DUNE_CACHE"] = "disabled"
    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "--build-dir", BUILD,
         "--profile", "release", "./perfbench/bench.exe"],
        stdout=sys.stderr, env=env, cwd=ROOT)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    try:
        run = subprocess.run([EXE, "--work-dir", WORK] + sys.argv[1:],
                             env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 2
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
