#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 wgabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--toy]

Run from the repository root. The first call configures and builds the
darwin library and the wgabench program (Release) under $CARGO_TARGET_DIR
(default .bench_build); later calls reuse that build. The program's last
stdout line is the result object; build output goes to
<build>/build.log and to stderr on failure. Workloads and metrics are
described in wgabench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = (
    "pair_ce11cb4_240k",
    "noise_shuffled_960k",
    "serve_queries_4k",
    "stream_ce11cb4_240k",
)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configure (once) and build wgabench; return the binary path."""
    cmake_dir = os.path.join(out, "cmake")
    log_path = os.path.join(out, "build.log")
    os.makedirs(cmake_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", cmake_dir, "--target", "wgabench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("run.py: build failed (%s)\n" % " ".join(step))
                # A failed configure must not leave a cache that skips it.
                shutil.rmtree(cmake_dir, ignore_errors=True)
                sys.exit(1)
    return os.path.join(cmake_dir, "wgabench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--toy", action="store_true",
                        help="a few kb per genome (the self-test size)")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    runs = os.path.join(out, "runs")
    traces = os.path.join(out, "traces")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-s%d-" % (args.workload, args.seed),
                               dir=runs)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--workdir", workdir,
               "--trace-out", os.path.join(
                   traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.toy:
        command.append("--toy")
    try:
        return subprocess.run(command).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
