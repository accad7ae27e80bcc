#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload search|traverse|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The plfoc library (src/) and the benchmark
binary are built with CMake into .bench_build/ (or $CARGO_TARGET_DIR when
set); inputs are generated into a per-run directory under .bench_work/ that
is removed afterwards. The binary's standard output is passed through; its
last line is the JSON result. The exit code is non-zero, with no result
printed, when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def log_resources():
    """Free disk and memory, for a run that failed without saying why."""
    free_gib = shutil.disk_usage(ROOT).free / 2**30
    available = "unknown"
    try:
        with open("/proc/meminfo") as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    available = f"{int(line.split()[1]) / 2**20:.2f} GiB"
    except OSError:
        pass
    log(f"free disk {free_gib:.2f} GiB, available memory {available}")


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["search", "traverse", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 1

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ, TMPDIR=workdir)  # service jobs' vector files
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        log_resources()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log(f"perfbench exited with {proc.returncode}")
        log_resources()
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
