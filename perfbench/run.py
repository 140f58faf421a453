#!/usr/bin/env python3
"""Builds the squash benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 50 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench-<checkout hash> (default
$CARGO_TARGET_DIR is .bench_build under the checkout) and is reused by later
runs of the same checkout; it is configured again on every run, which is
cheap when nothing changed. Build output and the human-readable report go
to standard error; the last line of standard output is the JSON result. The
exit code is nonzero, with no result printed, when the sources are missing,
the build fails or the benchmark does not finish.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper", "thrash")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run must end within 180 s; leave room for process teardown.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def source_hash():
    """Hash of every file the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path."""
    cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").is_file():
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "squash_perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr)
    return build_dir / "squash_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no squash sources under {ROOT / 'src'}")
        return 2

    # One build directory per checkout, so a shared target directory never
    # rebuilds another checkout's sources.
    target = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    checkout = hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]
    build_dir = target.resolve() / f"perfbench-{checkout}"
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"perfbench: build failed: {err}")
        return 1

    cmd = [str(exe),
           "--workload", args.workload,
           "--seed", str(args.seed % (1 << 64)),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           # Simulated results of one source tree must not depend on the
           # seed, the tracing or the process; the digest file, one per
           # source hash, carries them over from run to run.
           "--digest",
           str(build_dir / f"digest-{args.workload}-{source_hash()}.txt")]
    if args.trace:
        cmd += ["--spans", str(build_dir / f"spans-{args.workload}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stdout)
        log(f"perfbench: benchmark exited with {proc.returncode}")
        return proc.returncode or 1
    try:
        json.loads(lines[-1])
    except ValueError:
        log(proc.stdout)
        log("perfbench: last line is not a JSON result")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
