#!/usr/bin/env python3
"""Builds the MicroNN benchmark driver from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <disk_ann|hybrid_warm|update_mix> \
        --seed <n> --seconds <s> --trace <0|1>

The driver is built with CMake (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. The last line of standard output is the
driver's result object; build and progress output go to standard error.
The script exits non-zero, without printing a result, when the sources are
missing, the build fails, or the run fails or exceeds its time limit.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("disk_ann", "hybrid_warm", "update_mix")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_limited(cmd, timeout, stdout=None, cwd=None):
    """Runs cmd in its own process group; kills the group on timeout.

    Returns (exit code, captured stdout or None); exit code None on timeout.
    """
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, cwd=cwd,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise


def build(root, build_dir):
    cmake_dir = build_dir / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(cmake_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, _ = run_limited(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run_limited(["cmake", "--build", str(cmake_dir), "--target",
                           "perfbench_driver", "-j", jobs],
                          BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        return None
    return cmake_dir / "perfbench_driver"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        log(f"no MicroNN sources under {root}; nothing to build")
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir

    started = time.monotonic()
    driver = build(root, build_dir)
    if driver is None:
        log("build failed")
        return 2
    log(f"build ready after {time.monotonic() - started:.1f}s")

    workdir = build_dir / "work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        code, out = run_limited(
            [str(driver), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             args.trace, "--workdir", str(workdir)],
            RUN_TIMEOUT_S, stdout=subprocess.PIPE)
        traces = workdir / "traces"
        if traces.is_dir():
            keep = build_dir / "traces"
            keep.mkdir(exist_ok=True)
            for f in traces.iterdir():
                shutil.move(str(f), str(keep / f.name))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code is None:
        log(f"driver exceeded {RUN_TIMEOUT_S}s and was stopped")
        return 3
    if code != 0:
        log(f"driver failed with exit code {code}")
        return code
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
