#!/usr/bin/env python3
"""Build the benchmark runner from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The runner is built in Release mode into
$CARGO_TARGET_DIR (default .bench_build) by configuring the repository's own
CMake project with perfbench/attach.cmake attached, and rebuilt only when a
source file changed.  The runner's standard output is passed through; its
last line is the result object.  A traced run (--trace 1) also writes a
Chrome trace to <build dir>/traces/.

    python3 perfbench/run.py --regen-box [--seed N]

runs an exhaustive sweep of the dse_sweep candidate set and rewrites the
fixed hypervolume reference box, perfbench/hv_box.json.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "cmake"


def source_digest():
    """Hash of every file the runner is built from."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "perfbench", "tools", "tests", "bench", "examples"):
        files += sorted(p for p in (ROOT / sub).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        if p.suffix in (".py", ".md", ".json"):
            continue
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    h.update(BUILD_TYPE.encode())
    return h.hexdigest()


def ensure_built():
    """Configure and build perfbench_runner; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: no program sources at %s" % ROOT)
    bdir = build_dir()
    runner = bdir / "perfbench" / "perfbench_runner"
    stamp = bdir / "perfbench.stamp"
    digest = source_digest()
    if runner.is_file() and stamp.is_file() and stamp.read_text() == digest:
        return runner
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    with open(log, "w") as out:
        for cmd in (
            ["cmake", "-S", str(ROOT), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
             "-DCMAKE_PROJECT_fetcam_INCLUDE=" +
             str(ROOT / "perfbench" / "attach.cmake")],
            ["cmake", "--build", str(bdir), "--target", "perfbench_runner",
             "-j", jobs],
        ):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                sys.exit("perfbench: build failed (log: %s)" % log)
    stamp.write_text(digest)
    return runner


def git_sha():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-fault", choices=("winner", "neighbour", "frontier"))
    ap.add_argument("--regen-box", action="store_true")
    args = ap.parse_args()

    runner = ensure_built()
    box = ROOT / "perfbench" / "hv_box.json"
    if args.regen_box:
        cmd = [str(runner), "--regen-box", "--seed", str(args.seed),
               "--box", str(box)]
    else:
        if not args.workload:
            ap.error("--workload is required")
        cmd = [str(runner), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--box", str(box)]
        if args.trace:
            traces = build_dir().parent / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out",
                    str(traces / ("%s-seed%d.trace.json" % (args.workload, args.seed)))]
        if args.plant_fault:
            cmd += ["--plant-fault", args.plant_fault]
    print("build: " + json.dumps({"build_type": BUILD_TYPE, "git_sha": git_sha()}),
          flush=True)
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=None if args.regen_box else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
