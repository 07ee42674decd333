#!/usr/bin/env python3
"""Builds the perfbench driver from this checkout's sources and runs one
workload in its own process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); scratch files
(WALs, span dumps) go to .bench_out/. The last line of standard output is
the driver's JSON result; everything else goes to standard error. Exits
non-zero, printing no result, when the build, the run or the result's
shape fails.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("epinions-hot-whatif", "tatp-serve")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    src = os.path.join(root, "perfbench")
    for cmd in (["cmake", "-S", src, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs,
                 "--target", "uv_perfbench"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(build_dir, "uv_perfbench")
    return binary if os.path.exists(binary) else None


def expected_metrics(root, trace):
    """Metric names BENCHMARK.json promises for this mode, if it is here."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(root, os.path.abspath(build_dir))
    if binary is None:
        return 1
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("driver exited with %d" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("result has keys %s" % sorted(result))
        return 1
    want = expected_metrics(root, args.trace)
    if want is not None and set(result["metrics"]) != want:
        log("metrics differ from BENCHMARK.json: %s" %
            sorted(set(result["metrics"]) ^ want))
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
