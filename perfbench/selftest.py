#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checkers.

Each checker must pass a clean run and fail a run in which one answer was
corrupted before checking:

    lpm_wire   winner     a reply's winner id replaced by a non-matching rule
    acl_churn  winner     a sampled winner's source rule replaced
    knn_embed  neighbour  the last neighbour of a result list dropped
    dse_sweep  frontier   a dominated simulated point added to the frontier

    python3 perfbench/selftest.py        # exit 0 when every case holds
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = [("lpm_wire", "winner"), ("acl_churn", "winner"),
         ("knn_embed", "neighbour"), ("dse_sweep", "frontier")]


def verdict(workload, fault):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", "0"]
    if fault:
        cmd += ["--plant-fault", fault]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        return None
    return json.loads(r.stdout.strip().splitlines()[-1])["correct"]


def main():
    ok = True
    for workload, fault in CASES:
        clean = verdict(workload, None)
        planted = verdict(workload, fault)
        good = clean is True and planted is False
        ok = ok and good
        print("%-10s clean run correct=%s, planted %-9s correct=%s  %s" % (
            workload, clean, fault, planted, "ok" if good else "FAIL"),
            flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
