#!/usr/bin/env python3
"""Self-check of the benchmark: with a fixed seed, the count metrics must
repeat exactly from run to run.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

Run from the root of a checkout. Runs every workload twice untraced and
compares log_bytes_per_txn; runs epinions-hot-whatif twice traced and
compares the replay and plan counts (tatp-serve's what-ifs race with
commits over the wire, so its counts are not expected to repeat). Exits
non-zero on any difference or failed run.
"""
import argparse
import json
import subprocess
import sys

UNTRACED = {
    "epinions-hot-whatif": ["log_bytes_per_txn"],
    "tatp-serve": ["log_bytes_per_txn"],
}
TRACED = {
    "epinions-hot-whatif": [
        "core.replayed_per_whatif", "core.skipped_per_whatif",
        "core.plan_members_per_whatif", "core.critical_path",
        "core.rollback_commits_per_whatif", "sqldb.staged_bytes_per_whatif",
    ],
}


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode:
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result if result["correct"] else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=5)
    args = ap.parse_args()
    ok = True
    for trace, plan in ((0, UNTRACED), (1, TRACED)):
        for workload, names in plan.items():
            a = run(workload, args.seed, args.seconds, trace)
            b = run(workload, args.seed, args.seconds, trace)
            if a is None or b is None:
                print("%s trace=%d: run failed" % (workload, trace))
                ok = False
                continue
            for name in names:
                va = a["metrics"][name]["value"]
                vb = b["metrics"][name]["value"]
                same = va == vb
                ok = ok and same
                print("%-20s %-34s %s %r %r" % (
                    workload, name, "same" if same else "DIFFERS", va, vb))
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
