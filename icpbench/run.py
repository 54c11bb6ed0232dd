#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 icpbench/run.py --workload cold_fleet|warm_fleet|serve_edit \
        --seed N --seconds S --trace 0|1

The first run configures and builds icpbench/ (which compiles ../src)
into $CARGO_TARGET_DIR, default .bench_build; later runs only check
that the build is current. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. The run's scratch files
live under <build dir>/work and are removed when it ends; a traced
run leaves its Chrome trace-event file there. NOTES.md describes the
workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_fleet", "warm_fleet", "serve_edit")


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configure and build the icpbench binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("icpbench: the rewriter sources (src/) are missing")
    build_dir = os.path.join(target_dir(), "icpbench-build")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "icpbench", "-j", "3"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "icpbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plan", action="store_true",
                    help="print the seeded op sequence, reference digests "
                         "and quality metrics, then exit without timing")
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"icpbench: build failed: {e}")

    # Relative, so the daemon's socket path stays within sun_path.
    work = os.path.relpath(os.path.join(target_dir(), "work",
                                        f"{args.workload}-{os.getpid()}"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    if args.plan:
        cmd.append("--plan")
    try:
        proc = subprocess.run(cmd, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("icpbench: run timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
