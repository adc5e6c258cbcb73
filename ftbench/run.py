#!/usr/bin/env python3
"""Build and run ftbench, the fault-tolerance-on benchmark of the
real-threads runtime (RtEngine + RtRuntime).

    python3 ftbench/run.py --workload saturate|paced|recover \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
program from ../src into the build directory (.bench_build, or
$CARGO_TARGET_DIR when set); later runs only re-check the build. Checkpoint
directories live under <build dir>/run and are removed after each run;
traced runs leave a Chrome trace (tools/mstrace reads it) under
<build dir>/traces. The last line of standard output is the result object.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"ftbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, env):
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        [cmake, "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        [cmake, "--build", build_dir, "--target", "ftbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))
    exe = os.path.join(build_dir, "ftbench")
    if not os.path.isfile(exe):
        fail("build produced no ftbench binary")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["saturate", "paced", "recover"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out):
        out = os.path.join(ROOT, out)
    # Compiler and program temporaries stay inside the build directory too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    exe = build(os.path.join(out, "ftbench-release"), env)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", os.path.join(out, "run"),
           "--trace-dir", os.path.join(out, "traces")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail(f"ftbench did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
