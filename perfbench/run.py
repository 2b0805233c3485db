#!/usr/bin/env python3
"""Build the layered benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 0 --seconds 10 --trace 0

Every argument is handed to perfbench/bench.exe (see bench.ml). Build
output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Exits non-zero, without a result, when the
build or the run fails.
"""

import os
import shutil
import subprocess
import sys


def main():
    # Keep the build inside the checkout: the shared dune cache lives in
    # the home directory and the compilers' temporary files in TMPDIR.
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("run.py: dune is not on PATH")
    tmp = os.path.abspath(os.path.join("perfbench", "out", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet",
         "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.exit("run.py: build failed with code %d" % build.returncode)
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    sys.exit(subprocess.run([exe] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
