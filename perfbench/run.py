#!/usr/bin/env python3
"""Builds and runs the discovery ledger for one workload.

    python3 perfbench/run.py --workload <name> --seed <n|heldout> \
        --seconds <s> --trace <0|1> [--smoke]

Run from the repository root. The ledger is compiled from the checkout's
own sources (perfbench/CMakeLists.txt pulls in src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset. Build output goes to stderr; the ledger's report goes to stdout,
ending with one JSON line: {"correct", "attempted", "failed", "metrics"}.
Reports and span files land in .bench_out/.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cold_discover", "wide_probe", "serve_ingest")
# A seed never used while the benchmark or a change was tuned: a claimed
# gain must also hold on it ("--seed heldout").
HELD_OUT_SEED = 771_205
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target="ledger"):
    """Configures (once) and builds `target`; returns its path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, target)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed == "heldout":
        args.seed = str(HELD_OUT_SEED)
    if not args.seed.isdigit():
        parser.error("--seed takes a non-negative integer or 'heldout'")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv):
    args = parse_args(argv)
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out", os.path.join(ROOT, ".bench_out")]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: ledger timed out", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
