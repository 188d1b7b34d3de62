#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (README.md explains it).

    python3 e2ebench/run.py --workload pc-mpi1 --seed 1 --seconds 8 --trace 0
    python3 e2ebench/run.py --workload all --smoke      # every workload, small

Run it from the repository root.  The first run configures and builds the
benchmark together with the repository's libraries under .bench_build/;
later runs rebuild only what changed.  Build output goes to stderr, so the
last line of standard output is the benchmark's result line.  A failed
build exits non-zero without printing a result.

The benchmark runs each tool session in a child process of its own and
runs a session again when its process dies (README.md, *Findings*).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
WORKLOADS = ("pc-mpi1", "pc-mpi2", "substrate-256", "all")


def commit_id():
    """The git commit of the checkout, or a digest of the built sources
    when the checkout is not a git repository."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build():
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "e2ebench"],
                   stdout=sys.stderr, env=env, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs: checks the harness, not the performance")
    args = ap.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", commit_id()]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    code = subprocess.run(cmd).returncode
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
