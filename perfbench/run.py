#!/usr/bin/env python3
"""Run one GraphSD benchmark workload.

    python3 perfbench/run.py --workload pagerank-stream --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the harness (perfbench/CMakeLists.txt,
which compiles the library from src/) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), generates the workload's inputs from the
seed in a separate process, then measures. The last line of standard
output is the result object; everything before it is the human-readable
report. Inputs and datasets live under .bench_work/ and are removed on exit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pagerank-stream", "sssp-frontier", "serve-bfs")
# The whole run, build excluded, must end well within 180 s.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    if not shutil.which("cmake"):
        raise RuntimeError("cmake not found")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    # Keep the compiler's temporary files inside the build tree.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (RuntimeError, subprocess.SubprocessError) as error:
        log(f"build failed: {error}")
        return 1

    start = time.monotonic()
    work = os.path.join(".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work]
    try:
        subprocess.run([binary, "prepare"] + common, check=True,
                       stdout=sys.stderr, timeout=RUN_BUDGET_S)
        remaining = RUN_BUDGET_S - (time.monotonic() - start)
        measured = subprocess.run(
            [binary, "measure"] + common +
            ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=max(1.0, remaining))
    except subprocess.SubprocessError as error:
        log(f"run failed: {error}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass

    lines = measured.stdout.rstrip("\n").split("\n")
    if measured.returncode != 0:
        sys.stderr.write(measured.stdout)
        log(f"measure exited with {measured.returncode}")
        return measured.returncode
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
