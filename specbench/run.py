#!/usr/bin/env python3
"""Build specbench from this checkout's sources and run one measurement.

    python3 specbench/run.py --workload paper_suite --seed 42 --seconds 20 --trace 0
    python3 specbench/run.py --self-test

Configures and builds the benchmark (and the specfetch library it links)
as a Release build under .bench_build/specbench/build, incrementally
after the first time, then runs it from the checkout root. Build
output goes to stderr, so the last stdout line is the benchmark's JSON
result. Exits non-zero without a result when the build or run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "specbench", "build")
OUT = os.path.join(ROOT, ".bench_build", "specbench", "out")
BINARY = os.path.join(BUILD, "specbench")


def source_digest():
    """SHA-256 over the sources the benchmark binary is built from."""
    digest = hashlib.sha256()
    files = []
    for top in ("src", "specbench"):
        for base, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            files += [os.path.join(base, n) for n in names]
    files.append(os.path.join(ROOT, "bench", "paper_data.hh"))
    for path in sorted(files):
        if not path.endswith((".cc", ".hh", ".txt", ".json")):
            continue
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "specbench", "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"specbench: build step failed: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("specbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--print-digests", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    command = [BINARY]
    if args.self_test:
        command.append("--self-test")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", args.trace,
                    "--out-dir", OUT,
                    "--digests", os.path.join(HERE, "expected_digests.json"),
                    "--git-sha", git_sha(),
                    "--source-digest", source_digest()]
        if args.print_digests:
            command.append("--print-digests")
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        print("specbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
