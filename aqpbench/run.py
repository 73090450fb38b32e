#!/usr/bin/env python3
"""Builds the program from source and runs one benchmark workload.

Usage (from the repository root):

    python3 aqpbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        [--smoke] [--perturb]

Workloads: adhoc_contract, dashboard_refresh, extent_scan (see
aqpbench/README.md). The build goes to $CARGO_TARGET_DIR/aqpbench, or
.bench_build/aqpbench when that variable is unset; a path that is not
absolute is taken relative to the repository root. The last line of stdout
is the run's JSON result; build output goes to stderr. The exit code is the
benchmark's: 0 for a correct run, non-zero otherwise.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("adhoc_contract", "dashboard_refresh", "extent_scan")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "aqpbench"


def configured_for_this_checkout(out: Path) -> bool:
    cache = out / "CMakeCache.txt"
    if not cache.is_file():
        return False
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}"
    return home in cache.read_text(errors="replace").splitlines()


def build(out: Path) -> Path:
    nproc = str(os.cpu_count() or 1)
    if not configured_for_this_checkout(out):
        # A cache from another source tree would make cmake refuse to run.
        for stale in (out / "CMakeCache.txt", out / "CMakeFiles"):
            if stale.is_dir():
                shutil.rmtree(stale)
            elif stale.exists():
                stale.unlink()
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", nproc],
                   check=True, stdout=sys.stderr)
    return out / "aqpbench"


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the program and benchmark sources, for provenance where
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"aqpbench: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"aqpbench: build failed: {err}", file=sys.stderr)
        return 2

    work = out / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    if args.perturb:
        cmd.append("--perturb")
    env = dict(os.environ, AQPBENCH_GIT_SHA=git_sha(),
               AQPBENCH_SOURCE_DIGEST=source_digest())
    try:
        done = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"aqpbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
