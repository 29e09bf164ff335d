#!/usr/bin/env python3
"""Steadiness and A/B runs of the benchmark.

Steadiness: run one workload N times, each with its own seed, and print
every metric's median, quartiles and spread (interquartile distance as a
share of the median, the figure the bounds in BENCHMARK.json are set from):

    python3 perfbench/steady.py --workload lpm_wire --runs 10

A/B: alternate two checkouts pair by pair, swapping which side goes first,
with the same seed for both sides of a pair; print each side's figures, the
ratio of medians B/A and how many pairs B won:

    python3 perfbench/steady.py --workload lpm_wire --runs 10 --ab DIR_A DIR_B

Both modes take --trace 1 to summarize traced runs instead, and --json FILE
to keep every run's result.  The wall-clock figures a run prints on its
note line (ops_per_s, latency_p50_us, steal_share) are summarized beside
the metrics; they are reported, not gated.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(root) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit("run failed (%s, seed %d): exit %d" % (root, seed, r.returncode))
    res = json.loads(lines[-1])
    notes = [l for l in lines[:-1] if "steal_share" in l]
    if notes:
        res["note"] = notes[-1]
        for key, val in re.findall(r"(steal_share|ops_per_s|latency_p50_us)=([0-9.e+-]+)",
                                   notes[-1]):
            res["metrics"]["wall:" + key] = {"value": float(val), "unit": ""}
    return res


def summary(results):
    """metric -> (median, q1, q3, spread, unit) over a list of results."""
    out = {}
    names = results[0]["metrics"].keys()
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / abs(med) if med else float("inf")
        out[name] = (med, q1, q3, spread, results[0]["metrics"][name]["unit"])
    return out


def bounds():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def print_summary(title, results):
    b = bounds()
    failed = [r["failed"] / r["attempted"] for r in results]
    print("%s: %d runs, correct in all: %s, failed share: %s" % (
        title, len(results), all(r["correct"] for r in results),
        sorted(set(failed))))
    print("  %-34s %14s %14s %14s %8s %8s" % (
        "metric", "median", "q1", "q3", "spread", "bound"))
    for name, (med, q1, q3, spread, unit) in summary(results).items():
        bound = b.get(name, {}).get("bound")
        print("  %-34s %14.6g %14.6g %14.6g %8.4f %8s  %s" % (
            name, med, q1, q3, spread,
            "%.3f" % bound if bound is not None else "-", unit))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((HERE.parent / "BENCHMARK.json")
                                       .read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ab", nargs=2, metavar=("DIR_A", "DIR_B"))
    ap.add_argument("--json")
    args = ap.parse_args()

    if not args.ab:
        root = str(HERE.parent)
        results = []
        for i in range(args.runs):
            results.append(run_once(root, args.workload, args.seed0 + i,
                                    args.seconds, args.trace))
            print("run %d seed %d: %s" % (i + 1, args.seed0 + i,
                                           results[-1].get("note", "")), flush=True)
        print_summary(args.workload, results)
        dump = {"runs": results}
    else:
        side = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                root = args.ab[0] if s == "A" else args.ab[1]
                side[s].append(run_once(root, args.workload, args.seed0 + i,
                                        args.seconds, args.trace))
            print("pair %d seed %d done (%s first)" % (i + 1, args.seed0 + i,
                                                       order[0]), flush=True)
        print_summary("A " + args.ab[0], side["A"])
        print_summary("B " + args.ab[1], side["B"])
        b = bounds()
        sa, sb = summary(side["A"]), summary(side["B"])
        print("  %-34s %10s %8s" % ("metric", "B/A", "B wins"))
        for name in sa:
            better = b.get(name, {}).get(
                "better", "higher" if name.endswith("ops_per_s") else "lower")
            wins = 0
            for ra, rb in zip(side["A"], side["B"]):
                va = ra["metrics"][name]["value"]
                vb = rb["metrics"][name]["value"]
                if (vb < va) if better == "lower" else (vb > va):
                    wins += 1
            ratio = sb[name][0] / sa[name][0] if sa[name][0] else float("nan")
            print("  %-34s %10.4f %5d/%d" % (name, ratio, wins, args.runs))
        dump = side
    if args.json:
        Path(args.json).write_text(json.dumps(dump, indent=1))


if __name__ == "__main__":
    main()
